"""coverdepth benchmark: one workload, several fresh-interpreter passes.

    python3 perfbench/run.py --workload oracle_grid --seed 0 --seconds 25 --trace 0

Each pass runs perfbench/worker.py in a new interpreter, so the package's
process-global memos start empty, as for a command-line user.  Passes run
one at a time until --seconds is used up (at least three, four when
traced).  With --trace 0 the end-to-end metrics are the medians over the
passes; with --trace 1 untraced and traced passes alternate, and the
per-layer metrics are the medians over the traced passes, whose work
counters must agree exactly.  Every pass's answers go through the
correctness gate in checks.py.  Human-readable lines come first; the last
line of standard output is one JSON object.

All scratch files (caches, batch output, bytecode) live in a temporary
directory inside the checkout that is removed on exit.  The run exits
non-zero without a result when the checkout has no coverdepth sources.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_grid", "oracle_homology", "batch_auto")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = {0: 3, 1: 4}
MAX_PASSES = 60
SETUP_SAMPLES = 8  # extra set-up-only spawns, so the set-up median is steady
DEADLINE_S = 165  # the whole run, including checks, ends well within 180 s
TIME_METRICS = ("_s", "_ms")  # per-layer metrics that are times (medians, not exact)
UNITS = {"_s": "s", "_ms": "ms", "_ratio": "ratio", "_frac": "ratio", "_pct": "%", ".bytes": "bytes"}


def _unit(metric: str) -> str:
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)), "count")


def _env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("COVERDEPTH_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up pass fills the bytecode prefix
    env.update({
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(tmp / "pycache"),
    })  # each pass sets its own COVERDEPTH_CACHE
    return env


def _spawn(args: list[str], env: dict, timeout: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {err.decode(errors='replace')[-2000:]}")


def warm_up(env: dict, tmp: Path) -> None:
    """Compile the package's bytecode into the run's prefix before timing."""
    _spawn(["--workload", "-", "--seed", "0", "--tmp", str(tmp / "warmup"), "--warmup"], env, DEADLINE_S)


def run_passes(workload: str, seed: int, seconds: float, trace: int, tmp: Path,
               started: float) -> tuple[list[dict], list[float]]:
    """The measured passes, and every set-up time sampled on the way."""
    env = _env(tmp)
    warm_up(env, tmp)
    setups = [one_pass(workload, seed, False, tmp / f"setup-{i}", env, DEADLINE_S, setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    results: list[dict] = []
    durations: list[float] = []
    begin = time.monotonic()
    while len(results) < MAX_PASSES:
        now = time.monotonic()
        typical = statistics.median(durations) if durations else 0.0
        if len(results) >= MIN_PASSES[trace] and now - begin + typical > seconds:
            break
        left = DEADLINE_S - (now - started)
        if results and left < 2 * max(durations) + 5:
            break  # not enough time for another pass and the checks
        traced = bool(trace) and len(results) % 2 == 1
        results.append(one_pass(workload, seed, traced, tmp / f"pass-{len(results)}", env, max(left - 5, 1)))
        durations.append(time.monotonic() - now)
    if trace and len(results) < 2:
        raise RuntimeError("no time left for a traced pass")
    return results, setups + [r["setup_s"] for r in results]


def one_pass(workload: str, seed: int, traced: bool, pass_dir: Path, env: dict, timeout: float,
             setup_only: bool = False) -> dict:
    _spawn(["--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
            "--tmp", str(pass_dir), *(["--setup-only"] if setup_only else [])], env, timeout)
    result = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
    shutil.rmtree(pass_dir)
    return result


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f" (q1 {q[0]:.4g}, q3 {q[2]:.4g})"


def summarize(workload: str, seed: int, trace: int, results: list[dict],
              setups: list[float]) -> tuple[dict, int, int, list[str]]:
    lines: list[str] = []
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]

    attempted = failed = 0
    problems: list[str] = []
    for i, r in enumerate(results):
        bad = checks.verify(workload, seed, r["answers"], r["facts"])
        attempted += len(r["answers"])
        failed += len(bad)
        problems += [f"pass {i}: {item}: {'; '.join(why)}" for item, why in sorted(bad.items())]
        if r["answers"] != results[0]["answers"]:
            problems.append(f"pass {i}: answers differ from pass 0")
            failed += 1

    lines.append(f"workload {workload}, seed {seed}: {len(untraced)} untraced and {len(traced)} traced passes, "
                 f"{len(results[0]['answers'])} items per pass")
    samples = {"wall_s": [r["wall_s"] for r in untraced], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
    e2e = {name: statistics.median(values) for name, values in samples.items()}
    for name, unit in END_TO_END.items():
        lines.append(f"{name} {e2e[name]:.6g} {unit}  median of {len(samples[name])}"
                     f"{_quartiles(samples[name])}")
    lines.append(f"failed_frac {failed / max(attempted, 1):.6g} ratio  ({failed} of {attempted} items)")

    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
        return metrics, attempted, failed, lines + problems

    absent = set().union(*(r["absent"] for r in traced))
    if any(r["child_cpu_s"] > 0 for r in traced):
        absent |= {m.rsplit(".", 1)[0] for m, v in traced[0]["layers"].items() if v == 0}
        lines.append("work ran in child processes; layers with no calls here are reported absent")
    metrics = {}
    for name in traced[0]["layers"]:
        if tracer.is_absent(name, absent):
            continue
        values = [r["layers"][name] for r in traced]
        if name.endswith(TIME_METRICS):
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                problems.append(f"counter {name} differs between traced passes: {values}")
                failed += 1
        metrics[name] = {"value": value, "unit": _unit(name)}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = {"value": traced_wall / e2e["wall_s"] - 1, "unit": "ratio"}
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    if absent:
        lines.append(f"absent: {', '.join(sorted(absent))}")
    return metrics, attempted, failed, lines + problems


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coverdepth" / "__init__.py").is_file():
        print(f"error: no coverdepth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        results, setups = run_passes(args.workload, args.seed, args.seconds, args.trace, tmp, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics, attempted, failed, lines = summarize(args.workload, args.seed, args.trace, results, setups)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
