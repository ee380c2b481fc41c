"""Reduced-size smoke test of the benchmark harness (not part of the test suite).

    python3 perfbench/smoke.py        # from the repository root, about a minute

Runs tiny manifests of every kind the workloads use, untraced and traced,
and asserts that every metric named in BENCHMARK.json is emitted with its
unit and that all checks pass.  Then it corrupts one artifact and asserts
that the run is counted as failed, and that the benchmark refuses to run in
a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import workloads

TINY = (
    ("mean-odometer", "kind = mean-odometer\nd = 2\nn = 8, 16\nsamples = 10\n"),
    ("variance",
     "kind = variance\nd = 2\nn = 8, 16\nf = cos 1 0\nf2 = sin 1 1\nsamples = 200\n"),
    ("charfun", "kind = charfun\nd = 2\nn = 16\nalpha = 1.0\nf = cos 1 0\nsamples = 500\n"),
    ("kernel-decay", "kind = kernel-decay\nd = 3\nn = 8\noperator = lr\nalpha = 1.0\nr = 1, 2\n"),
    ("topple", "kind = topple\nd = 2\nn = 8\nheatmap = true\n"),
    ("topple-lr", "kind = topple\nd = 2\nn = 8\noperator = lr\nalpha = 1.0\n"),
    ("density-probe",
     "kind = density-probe\nd = 2\nn = 8\ndensity = 1.0\ntrials = 20\nexpect = none\n"),
    ("odometer", "kind = odometer\nd = 2\nn = 16\noperator = lr\nalpha = 1.0\n"),
    ("idla", "kind = idla\nparticles = 200\nd = 2\ntrials = 2\n"),
    ("rotor", "kind = rotor\nparticles = 200\nd = 2\n"),
    ("point-source", "kind = point-source\nmass = 200\nd = 2\n"),
    ("obstacle", "kind = obstacle-shape\nd = 2\nh = 0.1\nbox = 1.0\nsource = ball 0.5 4.0\n"),
)


def nudge_first_value(path: Path):
    """Add 1e-3 to the first value of a DSF1 snapshot, keeping it well formed."""
    data = bytearray(path.read_bytes())
    value = np.frombuffer(bytes(data[12:20]), dtype="<f8")[0] + 1e-3
    data[12:20] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workdir = root / ".perfbench" / "smoke"
    manifests = workloads.with_seeds(TINY, 0)

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line, record = run.run_benchmark(root, manifests, 0, trace, workdir)
        expected = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        assert emitted == expected, f"{key}: emitted {emitted}, BENCHMARK.json names {expected}"
        assert line["correct"] and line["failed"] == 0, record["problems"]
        print(f"trace={int(trace)}: {len(emitted)} metrics, {line['attempted']} runs, all correct")

    passes = [dict(p, dir=workdir / f"pass{k:02d}") for k, p in enumerate(record["passes"])]
    stem = f"{[name for name, _ in TINY].index('topple'):02d}-topple"
    nudge_first_value(passes[1]["dir"] / stem / "odometer.dsf1")
    attempted, failed, _ = run.evaluate(root / "src", manifests, passes)
    assert failed == 1, f"a changed repeat-pass artifact gave {failed} failures, expected 1"
    nudge_first_value(passes[0]["dir"] / stem / "odometer.dsf1")
    attempted, failed, problems = run.evaluate(root / "src", manifests, passes)
    assert failed == len(passes), f"a wrong odometer gave {failed} failures, expected {len(passes)}"
    assert any("closed form" in p for p in problems), problems
    print(f"corrupted artifacts: fail fraction {failed}/{attempted}")

    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(root / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", "growth", "--seed", "0", "--seconds", "1",
                                             "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"without sources: exit code {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
