"""Analysis orchestration: one graph in, one report out, plus the batch runner.

The stability index comes from ``depth.stability_index``, whose docstring
gives the order in which the sources are tried.  Every report records which
source produced the number.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from . import cache as cache_mod
from .altpaths import _shortest_max_ordered, alt_path_length, walk_length
from .depth import (
    DEFAULT_BUDGET,
    BudgetRefusal,
    depth_profile,
    reg_edge_ideal,
    stability_index,
)
from .families import FamilyInstance, parse_family_spec
from .graphs import Graph, has_cycle_of_length, is_bipartite, is_forest
from .linalg import FieldSpec, Rationals
from .matchings import (
    induced_matching_number,
    matching_number,
    ordered_matching_number,
    unique_perfect_matching_check,
)

WALK_VERTEX_LIMIT = 10

CORPUS_NOTES = {
    "FIG2": (
        "walk diagnostics diverge from the operative path length on this graph: "
        "alternating walks may end at matching-uncovered vertices, which the "
        "operative value deliberately excludes; both numbers are reported"
    ),
    "CHAR16": (
        "depth functions of this graph depend on the characteristic of the base "
        "field; the brute-force oracle is refused at 16 vertices, so only the "
        "combinatorial analysis ships by default"
    ),
}


@dataclass
class AnalyzeOptions:
    mode: str = "auto"
    budget: int = DEFAULT_BUDGET
    force: bool = False
    with_profile: bool = False
    use_cache: bool = False


@dataclass
class TheoremCheck:
    name: str
    status: str  # pass | fail | skipped
    detail: str = ""


@dataclass
class AnalysisReport:
    name: str
    graph: dict
    field: str
    nu: int
    nu_prime: int
    nu0: int
    alt_path_length: int
    bound: int
    walk_length: Optional[int]
    flags: dict
    stability_index: Optional[int]
    method: str
    equality: str  # attained | strict | unknown
    equality_source: str
    limit_depth: int
    profile: Optional[dict]
    checks: list[TheoremCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    seed: Optional[int] = None

    def to_json(self) -> dict:
        out = asdict(self)
        if self.profile is not None:
            out["profile"] = {str(k): v for k, v in sorted(self.profile.items())}
        return out


def analyze(G: Graph, field: FieldSpec = Rationals(),
            options: Optional[AnalyzeOptions] = None, *,
            name: str = "", seed: Optional[int] = None) -> AnalysisReport:
    """Full report: matching invariants, path statistics, class flags, the
    stability index with its provenance, and the per-theorem check list."""
    opts = options or AnalyzeOptions()
    res = stability_index(G, field, opts.mode, budget=opts.budget, force=opts.force)
    stab, method = res.value, res.method

    nu = matching_number(G)
    nu_prime = induced_matching_number(G)
    nu0 = ordered_matching_number(G)
    shortest = _shortest_max_ordered(G)
    ell = alt_path_length(G, shortest)
    bound = (ell + 1) // 2
    bip = is_bipartite(G)
    flags = {
        "bipartite": bip is not None,
        "forest": is_forest(G),
        "perfect_ordered_matching": 2 * nu0 == G.vertex_count,
        "pentagon_free_fully_ordered": nu == nu0 and not has_cycle_of_length(G, 5),
        "cameron_walker": nu_prime == nu,
    }

    walk_len = walk_length(G, shortest) if G.vertex_count <= WALK_VERTEX_LIMIT else None

    # a refusal of the link scan or of the profile leaves its checks out
    reg: Optional[int] = None
    reg_skipped = "algebra disabled in this mode"
    profile_json: Optional[dict] = None
    limit = G.vertex_count - nu0 - 1
    if opts.mode in ("auto", "oracle"):
        try:
            reg = reg_edge_ideal(G, field, budget=opts.budget, force=opts.force)
            if opts.with_profile:
                profile_json = depth_profile(G, field, budget=opts.budget, force=opts.force).profile
        except BudgetRefusal as refusal:
            reg_skipped = str(refusal)  # only read when the link scan, which runs first, was refused

    equality = "unknown" if stab is None else ("attained" if stab == bound else "strict")
    equality_source = method if stab is not None else "none"

    checks: list[TheoremCheck] = []

    def add(name: str, ok: Optional[bool], detail: str = "") -> None:
        status = "skipped" if ok is None else ("pass" if ok else "fail")
        checks.append(TheoremCheck(name, status, detail))

    add("bound", None if stab is None else stab <= bound,
        f"stability_index={stab}, bound={bound}")
    class_flag = flags["perfect_ordered_matching"] or flags["forest"] or flags["pentagon_free_fully_ordered"]
    add("equality-classes", (stab == bound) if (stab is not None and class_flag) else None,
        "class flags force equality" if class_flag else "no equality class applies")
    bip_bound = 2 * nu0 - 1 if flags["bipartite"] else 4 * nu0 - 3
    add("path-length-upper", ell <= bip_bound, f"{ell} <= {bip_bound}")
    add("unique-perfect-matching", unique_perfect_matching_check(G) if flags["perfect_ordered_matching"] else None,
        "graphs with a perfect ordered matching have one perfect matching")
    if reg is not None:
        add("constant-depth-iff", None if stab is None else ((stab == 1) == (reg == nu0 + 1)),
            f"reg={reg}, nu0+1={nu0 + 1}")
        add("regularity-upper", reg <= nu + 1, f"reg={reg} <= nu+1={nu + 1}")
    else:
        add("constant-depth-iff", None, reg_skipped)
    if profile_json is not None:
        vals = [profile_json[n] for n in sorted(profile_json)]
        add("profile-monotone", all(a >= b for a, b in zip(vals, vals[1:])), f"{vals}")
        add("profile-stabilizes", vals[-1] == limit, f"final={vals[-1]}, limit={limit}")

    notes = []
    key = name.strip().upper()
    if key in CORPUS_NOTES:
        notes.append(CORPUS_NOTES[key])
    if res.witness is not None:
        notes.append(f"certificate witness: {json.dumps(res.witness.to_json(), sort_keys=True)}")

    return AnalysisReport(
        name=name or "graph",
        graph=G.to_json(),
        field=field.label,
        nu=nu,
        nu_prime=nu_prime,
        nu0=nu0,
        alt_path_length=ell,
        bound=bound,
        walk_length=walk_len,
        flags=flags,
        stability_index=stab,
        method=method,
        equality=equality,
        equality_source=equality_source,
        limit_depth=limit,
        profile=profile_json,
        checks=checks,
        notes=notes,
        seed=seed,
    )


# -- batch runner ------------------------------------------------------------

def _cache_key(inst: FamilyInstance, field: FieldSpec, options: dict) -> dict:
    """Everything the report depends on except the instance's name and seed,
    so a graph repeated under another name still hits.  ``options`` holds
    every report-changing ``AnalyzeOptions`` field."""
    return {
        "op": "analyze",
        "graph": inst.graph.to_json(),
        "field": field.label,
        "options": options,
        "version": 2,
    }


def batch(family_spec: str, out_path: str | Path, field: FieldSpec = Rationals(),
          options: Optional[AnalyzeOptions] = None) -> int:
    """Analyze every instance of a family, then write one JSON report per
    line once all are done; resumable via the cache, which each report
    reaches as soon as it is made.  Returns the number of instances written."""
    opts = options or AnalyzeOptions()
    instances = parse_family_spec(family_spec)
    out_file = Path(out_path)
    out_file.parent.mkdir(parents=True, exist_ok=True)

    options = {k: v for k, v in asdict(opts).items() if k != "use_cache"}

    def run_one(inst: FamilyInstance) -> dict:
        if not opts.use_cache:
            return analyze(inst.graph, field, opts, name=inst.name, seed=inst.seed).to_json()
        key = _cache_key(inst, field, options)
        hit = cache_mod.get(key)
        if hit is not None:
            return {**hit, "name": inst.name, "seed": inst.seed}
        report = analyze(inst.graph, field, opts, name=inst.name, seed=inst.seed).to_json()
        cache_mod.put(key, report)
        return report

    results = [run_one(inst) for inst in instances]
    with out_file.open("w", encoding="utf-8") as handle:
        for payload in results:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
    return len(results)
