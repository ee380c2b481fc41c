"""Manifest grammar, experiment runner, exit codes, reproducibility."""

import filecmp
import os
from pathlib import Path

import numpy as np
import pytest

from sandlab import cli
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


TOPPLE = "kind = topple\nn = 8\nd = 2\nsigma = gaussian\nscale = 0.2\nseed = 1\n"


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
    noisy = "# header\n\nkind = topple\nd = 2   # trailing\nn = 8\nscale = 0.2\nseed = 1\nsigma = gaussian\n"
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


def test_validate_cross_key_rules():
    cases = [
        ("kind = topple\nn = 8\nd = 1\noperator = lr\n", "needs an 'alpha'"),
        ("kind = topple\nn = 8\nd = 1\nalpha = 1.0\n", "only applies to the long-range"),
        ("kind = variance\nn = 8, 16\nd = 2\nsigma = stable\nf = cos 1 0\nsamples = 10\n", "charfun"),
        ("kind = variance\nn = 8\nd = 2\nf = cos 1 0\nsamples = 10\n", "at least two sizes"),
        ("kind = charfun\nn = 8\nd = 2\nalpha = 2.5\nf = cos 1 0\nsamples = 10\n", r"alpha in \(0, 2\)"),
        ("kind = topple\nn = 8\nd = 2\nsigma = correlated\n", "delta"),
        ("kind = topple\nn = 8\nd = 2\nsigma = stable\n", "stable_alpha"),
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


def test_worker_count_never_changes_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = "kind = mean-odometer\nn = 8, 16\nd = 1\nsamples = 40\nseed = 3\n"
    p1 = write(tmp_path, "w1.txt", base + "out = outw1\n")
    p4 = write(tmp_path, "w4.txt", base + "out = outw4\n")
    monkeypatch.setenv("SANDLAB_THREADS", "1")
    assert main(["run", p1]) == 0
    monkeypatch.setenv("SANDLAB_THREADS", "4")
    assert main(["run", p4]) == 0
    for name in os.listdir("outw1"):
        if name == "summary.txt":
            continue
        assert (Path("outw1") / name).read_bytes() == (Path("outw4") / name).read_bytes()
    s1 = Path("outw1/summary.txt").read_text().splitlines()[1:]
    s4 = Path("outw4/summary.txt").read_text().splitlines()[1:]
    assert s1 == s4
