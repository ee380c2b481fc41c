"""sandlab end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a sandlab checkout.  The workload's manifests (see
workloads.py) are generated from the seed and run through
``sandlab.cli.run`` at ``workers=1``, one full pass per fresh worker
process, until S seconds are used (at least MIN_PASSES passes).  Every
artifact is then checked (checks.py) and compared byte for byte across
passes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``wall_s`` (one pass), ``setup_s`` (worker start to the
  first timed manifest: interpreter, ``import sandlab``, manifest
  validation) and ``peak_rss_mb`` (the worker's lifetime peak), each the
  median over the passes.
* ``--trace 1``: untraced and traced passes alternate; the per-layer metrics
  of layertrace.py are medians over the traced passes, and
  ``trace.overhead_frac`` compares traced with untraced pass time.

``attempted`` counts manifest runs over all passes and ``failed`` those that
raised, failed a check or wrote different bytes than the first pass.
Work files go to ``.perfbench/`` in the checkout.  Exits non-zero without a
result when the checkout holds no sandlab sources or a worker crashes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from layertrace import PER_LAYER

HERE = Path(__file__).resolve().parent
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = {False: 3, True: 4}
WORKER_TIMEOUT_S = 150
THREAD_ENV = ("SANDLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_pass(src: Path, manifest_dir: Path, out: Path, traced: bool) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src),
           "--manifests", str(manifest_dir), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((out / "result.json").read_text())
    result["dir"] = out
    return result


def measure(src: Path, manifest_dir: Path, workdir: Path, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` are used; with trace, untraced and traced alternate."""
    schedule = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    deadline = time.monotonic() + seconds
    passes = []
    last = 0.0
    while len(passes) < MIN_PASSES[trace] or time.monotonic() + last <= deadline:
        began = time.monotonic()
        passes.append(run_pass(src, manifest_dir, workdir / f"pass{len(passes):02d}", next(schedule)))
        last = time.monotonic() - began
    return passes


def artifact_hashes(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def evaluate(src: Path, manifests, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every manifest run of every pass."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import checks
    from sandlab import cli

    attempted = failed = 0
    problems = []
    for i, (name, text) in enumerate(manifests):
        stem = f"{i:02d}-{name}"
        first = passes[0]["dir"] / stem
        reference = artifact_hashes(first)
        errors = [next(m["error"] for m in p["manifests"] if m["name"] == stem) for p in passes]
        if errors[0] is None:
            try:
                found = checks.check(cli.validate_manifest(cli.parse_manifest(text)), first)
            except Exception as exc:  # a check that cannot read the artifacts fails the run
                found = [f"check raised {exc!r}"]
        else:
            found = ["first pass raised"]
        problems += [f"{stem}: {msg}" for msg in found]
        for k, (p, error) in enumerate(zip(passes, errors)):
            attempted += 1
            if error is not None:
                problems.append(f"{stem} pass {k} raised:\n{error}")
            elif k and artifact_hashes(p["dir"] / stem) != reference:
                problems.append(f"{stem} pass {k}: artifacts differ from pass 0")
            elif not found:
                continue
            failed += 1
    return attempted, failed, problems


def summarize(passes, trace: bool) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    if not trace:
        values = {name: statistics.median(p[name] for p in untraced) for name in END_TO_END}
        return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    traced = [p for p in passes if p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in PER_LAYER if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha(root),
        "workers": 1,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_benchmark(root: Path, manifests, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Measure, check and summarize; writes workdir/result.json.

    Returns the result line and the full record (provenance, passes, problems).
    """
    src = root / "src"
    shutil.rmtree(workdir, ignore_errors=True)
    manifest_dir = workdir / "manifests"
    manifest_dir.mkdir(parents=True)
    for i, (name, text) in enumerate(manifests):
        (manifest_dir / f"{i:02d}-{name}.txt").write_text(text)
    passes = measure(src, manifest_dir, workdir, seconds, trace)
    attempted, failed, problems = evaluate(src, manifests, passes)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": summarize(passes, trace)}
    record = {
        "provenance": provenance(root),
        "passes": [{k: v for k, v in p.items() if k != "dir"} for p in passes],
        "problems": problems,
        "result": line,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sandlab" / "__init__.py").is_file():
        print(f"error: {root} holds no sandlab sources (src/sandlab)", file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        manifests = workloads.with_seeds(workloads.WORKLOADS[args.workload], args.seed)
        line, record = run_benchmark(root, manifests, args.seconds, bool(args.trace), workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print("provenance: " + json.dumps(record["provenance"]))
    print("passes: " + json.dumps([{k: p[k] for k in ("traced", "setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                                   for p in record["passes"]]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
