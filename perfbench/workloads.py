"""The benchmark's workloads: seeded inputs, the timed section, and the
facts the correctness checks need.

Each workload has three steps.  ``inputs(seed)`` runs during set-up and
builds everything the timed section consumes.  ``run(inputs, tmp)`` is the
timed section.  ``collect(inputs, raw, tmp)`` runs after timing: it turns
what ``run`` returned into one answer per item (an answer with an ``error``
key when the item raised) and computes the facts the invariant checks
compare against.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

import coverdepth as cd
from checks import MATH_FIELDS

GRID_TREES, GRID_TREE_R, GRID_TREE_N = 2, 8, 6
HOMOLOGY_GRAPHS, HOMOLOGY_R, HOMOLOGY_M, HOMOLOGY_N = 18, 8, 12, 2
BATCH_COUNT, BATCH_MAXR = 1200, 6


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"coverdepth-bench/{workload}/{seed}")


def random_tree(rng: random.Random, r: int) -> cd.Graph:
    """Random recursive tree on 1..r under a random relabeling."""
    labels = list(range(1, r + 1))
    rng.shuffle(labels)
    return cd.Graph.make(r, [(labels[rng.randrange(v)], labels[v]) for v in range(1, r)])


def random_gnm(rng: random.Random, r: int, m: int) -> cd.Graph:
    """Uniform graph with exactly m edges and no isolated vertex."""
    pairs = list(combinations(range(1, r + 1), 2))
    while True:
        edges = rng.sample(pairs, m)
        if len({v for e in edges for v in e}) == r:
            return cd.Graph.make(r, edges)


def _report_answer(item_id: str, report: dict) -> dict:
    answer = {"id": item_id, **{k: report.get(k) for k in MATH_FIELDS}}
    answer["failed_checks"] = sorted(c["name"] for c in report.get("checks", ()) if c["status"] == "fail")
    return answer


def _attempt(item_id: str, fn) -> dict:
    try:
        return fn()
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return {"id": item_id, "error": f"{type(exc).__name__}: {exc}"}


# -- oracle_grid ---------------------------------------------------------------

def grid_inputs(seed: int) -> dict:
    rng = _rng("oracle_grid", seed)
    trees = [random_tree(rng, GRID_TREE_R) for _ in range(GRID_TREES)]
    return {"fam2": cd.builtin_graph("FAM(2)"), "trees": trees}


def grid_run(inputs: dict, tmp: Path) -> list[dict]:
    def profile() -> dict:
        rep = cd.depth_profile(inputs["fam2"], force=True)
        return {"id": "FAM(2)", "profile": {str(n): d for n, d in sorted(rep.profile.items())},
                "stability_index": rep.stability_index, "limit_depth": rep.limit_depth,
                "nu0": rep.nu0}

    answers = [_attempt("FAM(2)", profile)]
    for k, tree in enumerate(inputs["trees"]):
        tid = f"tree-{k}"
        answers.append(_attempt(tid, lambda: {
            "id": tid, "profile": {str(GRID_TREE_N): cd.depth_symbolic(tree, GRID_TREE_N, force=True)}}))
    return answers


def grid_collect(inputs: dict, answers: list[dict], tmp: Path) -> tuple[list[dict], dict]:
    trees = {f"tree-{k}": {"r": t.vertex_count, "nu0": cd.ordered_matching_number(t),
                           "bound": cd.stability_bound(t), "n": GRID_TREE_N}
             for k, t in enumerate(inputs["trees"])}
    return answers, {"fam2_certificate": cd.stability_certificate(inputs["fam2"]).value, "trees": trees}


# -- oracle_homology -----------------------------------------------------------

def homology_inputs(seed: int) -> dict:
    rng = _rng("oracle_homology", seed)
    return {"graphs": [random_gnm(rng, HOMOLOGY_R, HOMOLOGY_M) for _ in range(HOMOLOGY_GRAPHS)]}


def homology_run(inputs: dict, tmp: Path) -> list[dict]:
    answers = []
    for k, g in enumerate(inputs["graphs"]):
        gid = f"g{HOMOLOGY_R}-{k}"
        answers.append(_attempt(gid, lambda: {
            "id": gid, "profile": {str(HOMOLOGY_N): cd.depth_symbolic(g, HOMOLOGY_N)}}))
    return answers


def homology_collect(inputs: dict, answers: list[dict], tmp: Path) -> tuple[list[dict], dict]:
    return answers, {"graphs": {f"g{HOMOLOGY_R}-{k}": {"r": g.vertex_count, "nu0": cd.ordered_matching_number(g),
                                              "reg": cd.reg_edge_ideal(g), "n": HOMOLOGY_N}
                       for k, g in enumerate(inputs["graphs"])}}


# -- batch_auto ----------------------------------------------------------------

def batch_inputs(seed: int) -> dict:
    return {"spec": f"graphs seed={seed} count={BATCH_COUNT} maxr={BATCH_MAXR}"}


def batch_run(inputs: dict, tmp: Path) -> dict:
    """A cold pass into the empty cache, then the same batch again as the
    resume pass."""
    opts = cd.AnalyzeOptions(use_cache=True)
    return _attempt("batch", lambda: {
        "cold": cd.batch(inputs["spec"], tmp / "cold.jsonl", options=opts),
        "resume": cd.batch(inputs["spec"], tmp / "resume.jsonl", options=opts)})


def batch_collect(inputs: dict, raw: dict, tmp: Path) -> tuple[list[dict], dict]:
    if "error" in raw:
        return [{"id": f"line-{i}", "error": raw["error"]} for i in range(BATCH_COUNT)], {}
    cold, resume = (tmp / "cold.jsonl").read_bytes(), (tmp / "resume.jsonl").read_bytes()
    # Keyed by line: a cache hit for a repeated graph carries the name of
    # the graph's first occurrence.
    lines = cold.decode("utf-8").splitlines()
    answers = [_report_answer(f"line-{i}", json.loads(line)) for i, line in enumerate(lines)]
    return answers, {"resume_identical": cold == resume, "count": BATCH_COUNT}


WORKLOADS = {
    "oracle_grid": (grid_inputs, grid_run, grid_collect),
    "oracle_homology": (homology_inputs, homology_run, homology_collect),
    "batch_auto": (batch_inputs, batch_run, batch_collect),
}
