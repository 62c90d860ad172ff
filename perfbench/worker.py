"""One pass of one workload in a fresh interpreter; run by run.py.

Set-up (imports, inputs, the empty cache directory) is timed from the
moment the parent spawned this process; then the timed section runs,
optionally under the layer tracer; then, outside any timing, the answers
and check facts are collected and everything is written as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True, help="this pass's scratch directory")
    parser.add_argument("--spawned", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--warmup", action="store_true", help="only import, to compile bytecode")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import coverdepth

    if Path(coverdepth.__file__).resolve().parent != ROOT / "src" / "coverdepth":
        raise SystemExit(f"imported coverdepth from {coverdepth.__file__}, not from this checkout")
    import tracer
    import workloads

    if args.warmup:
        return 0
    make_inputs, run, collect = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    (args.tmp / "cache").mkdir(parents=True)
    os.environ["COVERDEPTH_CACHE"] = str(args.tmp / "cache")
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    if args.setup_only:
        (args.tmp / "result.json").write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0

    stats, absent = None, []
    if args.trace:
        stats = tracer.Stats()
        absent = tracer.install(stats)
    start = time.perf_counter()
    raw = run(inputs, args.tmp)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.layer_metrics(stats) if stats is not None else None
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    answers, facts = collect(inputs, raw, args.tmp)
    result = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "child_cpu_s": children.ru_utime + children.ru_stime,
        "answers": answers,
        "facts": facts,
        "layers": layers,
        "absent": absent,
    }
    (args.tmp / "result.json").write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
