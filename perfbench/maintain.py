"""Maintenance commands for the benchmark (not run by the benchmark itself).

    python3 perfbench/maintain.py record     # re-record expected.json at the default seed
    python3 perfbench/maintain.py counters   # two traced runs per workload; counters must match
    python3 perfbench/maintain.py spread --seeds 10 --out spread.json
    python3 perfbench/maintain.py empty      # run.py must fail without the package sources

``spread`` runs every workload once per seed and prints, per end-to-end
metric, the median and the interquartile range as a share of the median
next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import checks
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(args) -> int:
    out = {}
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        env = run._env(tmp)
        run.warm_up(env, tmp)
        for workload in run.WORKLOADS:
            res = run.one_pass(workload, checks.DEFAULT_SEED, False, tmp / workload, env, 600)
            bad = checks.verify(workload, None, res["answers"], res["facts"])
            if bad:
                raise SystemExit(f"{workload}: invariants fail, not recording: {bad}")
            out[workload] = {a["id"]: {k: a[k] for k in checks.MATH_FIELDS if a.get(k) is not None}
                             for a in res["answers"]}
            print(f"{workload}: {len(out[workload])} answers", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # one item per line, so a re-recording diffs readably
    blocks = [f"{json.dumps(w)}: {{\n" + ",\n".join(f" {json.dumps(i)}: {json.dumps(a, sort_keys=True)}"
                                                   for i, a in sorted(items.items())) + "\n}"
              for w, items in sorted(out.items())]
    checks.EXPECTED.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


def counters(args) -> int:
    status = 0
    for workload in args.workload or run.WORKLOADS:
        first, second = (_bench(workload, args.seed, args.seconds, 1)["metrics"] for _ in range(2))
        exact = [m for m, v in first.items() if v["unit"] not in ("s", "ms") and m != "trace.overhead_frac"]
        diff = [m for m in exact if first[m] != second.get(m)]
        print(f"{workload}: {len(exact)} counters, {len(diff)} differ {diff or ''}", flush=True)
        status |= bool(diff)
    return status


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    seconds = args.seconds or BENCHMARK["run_seconds"]
    table: dict = {}
    for workload in args.workload or run.WORKLOADS:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.monotonic()
            rows.append(_bench(workload, seed, seconds, 0)["metrics"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{m} {v['value']:.4g}" for m, v in rows[-1].items())
                  + f"  ({time.monotonic() - started:.0f} s)", flush=True)
        table[workload] = {m: [r[m]["value"] for r in rows] for m in rows[0]}
        for metric, values in table[workload].items():
            q = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"  {workload} {metric}: median {med:.4g}, spread {(q[2] - q[0]) / med:.3f} "
                  f"(bound {bounds.get(metric)})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1), encoding="utf-8")
    return 0


def empty(args) -> int:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-empty-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, tmp / path, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*BENCHMARK["command"], "--workload", run.WORKLOADS[0], "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"exit {proc.returncode}, stdout {proc.stdout.strip()!r}, stderr {proc.stderr.strip()!r}: "
          f"{'ok' if ok else 'WRONG'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark maintenance")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("record")
    p = sub.add_parser("counters")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1)
    p = sub.add_parser("spread")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out")
    sub.add_parser("empty")
    args = parser.parse_args()
    return {"record": record, "counters": counters, "spread": spread, "empty": empty}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
