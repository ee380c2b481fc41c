"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --src SRC --manifests DIR --out DIR --t0 T [--trace]

Imports sandlab from SRC, loads and validates every manifest in DIR (sorted
by file name), then runs each through ``sandlab.cli.run`` at ``workers=1``
into OUT/<manifest stem>.  T is the ``time.monotonic()`` reading of the
parent just before it started this process; set-up time runs from T to the
first timed manifest, so it includes interpreter start-up and the import.
Writes OUT/result.json; with --trace also OUT/spans.jsonl.  A manifest that
raises is recorded and the pass goes on.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--manifests", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import sandlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"error: imported sandlab from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    runs = []
    for path in sorted(Path(args.manifests).glob("*.txt")):
        manifest = cli.load_manifest(path)
        cli.validate_manifest(manifest)
        runs.append((path.stem, manifest))
    setup_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.reset()

    out = Path(args.out)
    manifests = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for name, manifest in runs:
        began = time.perf_counter()
        try:
            record = cli.run(manifest, out / name, workers=1)
            error = None
            criteria_failed = sum(not c.passed for c in record.criteria)
        except Exception:
            error = traceback.format_exc()
            criteria_failed = None
        manifests.append({"name": name, "kind": manifest.kind, "seconds": time.perf_counter() - began,
                          "error": error, "criteria_failed": criteria_failed})
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0

    result = {
        "traced": tracer is not None,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifests": manifests,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.cpu_s"] = cpu_s
        tracer.write_spans(out / "spans.jsonl")
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
