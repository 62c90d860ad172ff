"""Correctness gate: invariants that hold for every seed, and for the
default seed a comparison with the answers recorded in expected.json.

Only mathematical fields are compared (``MATH_FIELDS``), never
provenance such as ``method`` or ``notes``; a value the recorded answer
lacks (not computed when it was recorded) is not a mismatch.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Optional

EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
MATH_FIELDS = ("stability_index", "nu", "nu0", "alt_path_length", "bound",
               "limit_depth", "profile", "flags")
FAM2_PROFILE = {"1": 5, "2": 5, "3": 4, "4": 3, "5": 3, "6": 3, "7": 3}


def _grid(answers: dict, facts: dict, bad: dict) -> None:
    fam = answers.get("FAM(2)", {})
    if fam.get("profile") != FAM2_PROFILE:
        bad["FAM(2)"].append(f"profile {fam.get('profile')} != {FAM2_PROFILE}")
    if not fam.get("stability_index") == facts.get("fam2_certificate") == 4:
        bad["FAM(2)"].append(f"index {fam.get('stability_index')}, certificate "
                             f"{facts.get('fam2_certificate')}, expected 2s = 4")
    for tid, f in facts.get("trees", {}).items():
        depth = answers.get(tid, {}).get("profile", {}).get(str(f["n"]))
        at_limit = depth == f["r"] - f["nu0"] - 1
        if at_limit != (f["n"] >= f["bound"]):
            bad[tid].append(f"depth {depth} at n={f['n']} vs limit {f['r'] - f['nu0'] - 1}, bound {f['bound']}")


def _homology(answers: dict, facts: dict, bad: dict) -> None:
    for gid, f in facts.get("graphs", {}).items():
        depth = answers.get(gid, {}).get("profile", {}).get(str(f["n"]))
        lo, hi = f["r"] - f["nu0"] - 1, f["r"] - f["reg"]
        if depth is None or not lo <= depth <= hi:
            bad[gid].append(f"depth {depth} outside [{lo}, {hi}]")


def _batch(answers: dict, facts: dict, bad: dict) -> None:
    if not facts.get("resume_identical"):
        bad["batch"].append("resume pass is not byte-identical to the cold pass")
    if len(answers) != facts.get("count"):
        bad["batch"].append(f"{len(answers)} reports, expected {facts.get('count')}")


INVARIANTS = {"oracle_grid": _grid, "oracle_homology": _homology, "batch_auto": _batch}


def _load_expected(workload: str) -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {})


def _mismatches(recorded: dict, answer: dict) -> list[str]:
    out = []
    for key in MATH_FIELDS:
        want = recorded.get(key)
        if want is None:
            continue  # not computed when recorded
        got = answer.get(key)
        if isinstance(want, dict):
            diff = sorted(k for k, v in want.items() if not isinstance(got, dict) or got.get(k) != v)
            if diff:
                out.append(f"{key}[{','.join(diff)}] {got} != recorded {want}")
        elif got != want:
            out.append(f"{key} {got} != recorded {want}")
    return out


def verify(workload: str, seed: Optional[int], answers: list[dict], facts: dict) -> dict[str, list[str]]:
    """Map each failed item to its reasons; an empty map means all correct.

    The recorded answers are compared only when ``seed`` is the default
    seed; pass ``None`` to check the invariants alone."""
    bad: dict[str, list[str]] = defaultdict(list)
    by_id = {}
    for ans in answers:
        by_id[ans["id"]] = ans
        if "error" in ans:
            bad[ans["id"]].append(ans["error"])
        if ans.get("failed_checks"):
            bad[ans["id"]].append(f"report checks failed: {ans['failed_checks']}")
    INVARIANTS[workload](by_id, facts, bad)
    if seed == DEFAULT_SEED:
        recorded = _load_expected(workload)
        if not recorded:
            bad["expected.json"].append(f"no recorded answers for {workload}")
        for item, want in recorded.items():
            if item not in by_id:
                bad[item].append("missing")
            else:
                bad[item].extend(_mismatches(want, by_id[item]))
    return {k: v for k, v in bad.items() if v}
