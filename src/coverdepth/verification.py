"""Corpus verification: every acceptance check behind `verify`, one result
per criterion.

Levels: "quick" exercises paths and cycles up to 7 vertices plus the figure
self-checks; "full" adds the 8-vertex instances, the cycles C9 and C10, the
family example and the seeded random sweeps.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from .altpaths import (
    alt_path_length,
    min_alt_path_length,
    path_exponents,
    profile,
    shifted_exponents,
    stability_bound,
    walk_length,
)
from .analyzer import analyze, AnalyzeOptions
from .complexes import from_facets, reduced_homology
from .depth import (
    _grid_depth,
    BudgetRefusal,
    cycle_stability_closed_form,
    depth_profile,
    depth_symbolic,
    feasible_exponents,
    limit_depth,
    path_stability_closed_form,
    reg_edge_ideal,
    stability_certificate,
    stability_index_oracle,
)
from .families import random_forests, random_graphs
from .graphs import Graph, builtin_graph, cycle_graph, is_bipartite, path_graph
from .linalg import PrimeField, Rationals
from .matchings import (
    OrderedMatching,
    enumerate_max_ordered_matchings,
    matching_number,
    ordered_matching_number,
)

# the unique 6-vertex triangulation of the real projective plane; torsion
# witness for field-dependent homology
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]

FIG1_PAIRS = ((1, 5), (2, 6), (3, 7), (4, 8))
FIG1_BETA = (3, 2, 1, 0, 3, 4, 5, 6)
FIG3_ALPHA = (2, 2, 1, 0, 0, 0, 1, 2)
FIG2_ALT_PAIRS = ((1, 5), (2, 6), (4, 9), (3, 8))


class CheckResult(NamedTuple):
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _expect(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# -- criteria ----------------------------------------------------------------

def check_path_closed_form(level: str) -> tuple[bool, str]:
    rmax = 8 if level == "full" else 7
    got = {}
    for r in range(2, rmax + 1):
        got[r] = stability_index_oracle(path_graph(r))
    want = {r: path_stability_closed_form(r) for r in got}
    return got == want, f"oracle {got}, closed form {want}"


def check_odd_cycles(level: str) -> tuple[bool, str]:
    rs = (3, 5, 7, 9) if level == "full" else (3, 5, 7)
    got = {r: stability_index_oracle(cycle_graph(r)) for r in rs}
    want = {r: cycle_stability_closed_form(r) for r in got}
    return got == want, f"oracle {got}, closed form {want}"


def check_even_cycles(level: str) -> tuple[bool, str]:
    rs = (4, 6, 8, 10) if level == "full" else (4, 6)
    failures: list[str] = []
    for r in rs:
        got, want = stability_index_oracle(cycle_graph(r)), cycle_stability_closed_form(r)
        _expect(failures, got == want, f"C{r}: oracle {got} != closed form {want}")
        ell = min_alt_path_length(cycle_graph(r))
        want_ell = 2 * (-((r - 2) // -4)) - 1
        _expect(failures, ell == want_ell, f"C{r}: length {ell} != {want_ell}")
    return not failures, "; ".join(failures) or f"cycles {rs}: index and length match the closed forms"


def check_regularity(level: str) -> tuple[bool, str]:
    got = {r: reg_edge_ideal(cycle_graph(r)) for r in (5, 7, 8)}
    want = {5: 3, 7: 3, 8: 4}
    return got == want, f"link-homology {got}, expected {want}"


def _duality_instances(level: str):
    for r in range(2, 9):
        yield f"P{r}", path_graph(r)
    for r in range(3, 9):
        yield f"C{r}", cycle_graph(r)
    for name in ("FIG1", "FIG3", "FAM(1)", "FAM(2)"):
        yield name, builtin_graph(name)
    if level == "full":
        for inst in random_graphs(seed=1105, count=25, max_r=8):
            yield inst.name, inst.graph


def check_depth_reg_duality(level: str) -> tuple[bool, str]:
    failures: list[str] = []
    count = 0
    for name, G in _duality_instances(level):
        d1 = _grid_depth(G, 1)  # by name: depth_symbolic(G, 1) reads reg's own memo
        reg = reg_edge_ideal(G)
        count += 1
        _expect(failures, d1 == G.vertex_count - reg,
                f"{name}: depth {d1} != r - reg = {G.vertex_count - reg}")
    return not failures, "; ".join(failures) or f"depth(1) = r - reg on {count} graphs"


def check_fig1(level: str) -> tuple[bool, str]:
    G = builtin_graph("FIG1")
    failures: list[str] = []
    om = OrderedMatching.validated(G, FIG1_PAIRS)  # the stated pairs, or it raises
    _expect(failures, om.covered == frozenset(G.vertices()), "matching not perfect")
    length, walk = alt_path_length(G, om), walk_length(G, om)
    _expect(failures, length == 13, f"operative length {length} != 13")
    _expect(failures, walk == 13, f"walk length {walk} != 13")
    _expect(failures, min_alt_path_length(G) == 13, "graph invariant != 13")
    cert = stability_certificate(G)
    _expect(failures, cert.value == 7, f"certificate {cert.value} != 7")
    beta = shifted_exponents(G, om, 7)
    _expect(failures, beta.vector() == FIG1_BETA, f"beta {beta.vector()} != {FIG1_BETA}")
    _expect(failures, feasible_exponents(G, om, 6) is None, "witness found at n=6")
    return not failures, "; ".join(failures) or "length 13, certificate 7, beta witness checks"


def check_fig3(level: str) -> tuple[bool, str]:
    G = builtin_graph("FIG3")
    failures: list[str] = []
    om = OrderedMatching.validated(G, FIG1_PAIRS)  # same pair labels as FIG1
    lengths = profile(G, om).partner_lengths
    _expect(failures, lengths == {5: 5, 6: 5, 7: 3, 8: 1}, f"partner lengths {lengths}")
    alpha = path_exponents(G, om)
    _expect(failures, alpha.vector() == FIG3_ALPHA, f"alpha {alpha.vector()} != {FIG3_ALPHA}")
    edges = [(u, v) for u, v in G.edge_list if FIG3_ALPHA[u - 1] + FIG3_ALPHA[v - 1] <= 2]
    _expect(failures, set(edges) == set(FIG1_PAIRS), f"qualifying edges {edges} != matching")
    got = stability_index_oracle(G)
    _expect(failures, got == 3, f"oracle {got} != 3")
    return not failures, "; ".join(failures) or "alpha vector, qualifying graph and oracle agree"


def check_fig2(level: str) -> tuple[bool, str]:
    G = builtin_graph("FIG2")
    failures: list[str] = []
    om = OrderedMatching.validated(G, FIG1_PAIRS)
    prof = profile(G, om)
    _expect(failures, (prof.base_max, prof.bridged_max, prof.length) == (3, 7, 7),
            f"(ell0, ell1, length) = {(prof.base_max, prof.bridged_max, prof.length)} != (3, 7, 7)")
    alt = OrderedMatching.validated(G, FIG2_ALT_PAIRS)
    wl = walk_length(G, alt)
    fl = alt_path_length(G, alt)
    _expect(failures, wl == 4, f"walk length {wl} != 4")
    _expect(failures, fl == 3, f"operative length {fl} != 3")
    report = analyze(G, options=AnalyzeOptions(mode="combinatorial"), name="FIG2")
    _expect(failures, any("diverge" in note for note in report.notes),
            "divergence note missing from the report")
    detail = ("; ".join(failures) or
              "operative length 3 vs walk 4 on the second matching; divergence recorded, "
              "the walk value is never asserted as the graph invariant")
    return not failures, detail


def check_family(level: str) -> tuple[bool, str]:
    failures: list[str] = []
    sizes = (1, 2) if level == "full" else (1,)
    for s in sizes:
        G = builtin_graph(f"FAM({s})")
        cert = stability_certificate(G)
        _expect(failures, cert.value == 2 * s, f"FAM({s}): certificate {cert.value} != {2 * s}")
        _expect(failures, ordered_matching_number(G) == 2 * s, f"FAM({s}): nu0 != {2 * s}")
        ell = min_alt_path_length(G)
        _expect(failures, ell == 4 * s - 1, f"FAM({s}): length {ell} != {4 * s - 1}")
    return not failures, "; ".join(failures) or f"certificate 2s, nu0 = 2s, length 4s-1 for s in {sizes}"


def check_bound_sweep(level: str) -> tuple[bool, str]:
    failures: list[str] = []
    done = skipped = 0
    for inst in random_graphs(seed=417, count=100, max_r=8):
        G = inst.graph
        bound = stability_bound(G)
        try:
            got = stability_index_oracle(G)
            # the oracle reads depth(B) off the witness point and depth(1) as
            # r - reg; depth_symbolic checks the first and the grid the second
            at_bound = depth_symbolic(G, bound)
            d1, reg = _grid_depth(G, 1), reg_edge_ideal(G)
        except BudgetRefusal:
            skipped += 1
            continue
        done += 1
        _expect(failures, got <= bound, f"{inst.name}: index {got} > bound {bound}")
        _expect(failures, at_bound <= limit_depth(G),
                f"{inst.name}: depth {at_bound} at the bound {bound} is above the limit")
        _expect(failures, d1 == G.vertex_count - reg,
                f"{inst.name}: depth {d1} at n=1 != r - reg = {G.vertex_count - reg}")
    return not failures, "; ".join(failures) or (
        f"{done} oracles within bound, the depth at the bound at the limit and the grid's "
        f"at n=1 equal to r - reg ({skipped} over budget)")


def check_forest_sweep(level: str) -> tuple[bool, str]:
    failures: list[str] = []
    for inst in random_forests(seed=1729, count=50, max_r=9):
        G = inst.graph
        nu, nu0 = matching_number(G), ordered_matching_number(G)
        _expect(failures, nu == nu0, f"{inst.name}: nu {nu} != nu0 {nu0}")
        bound = stability_bound(G)
        got = stability_index_oracle(G)
        _expect(failures, got == bound, f"{inst.name}: index {got} != bound {bound}")
    return not failures, "; ".join(failures) or "50 forests: index attains the bound, nu = nu0"


def _profile_instances(level: str):
    yield "P4", path_graph(4)
    yield "P6", path_graph(6)
    yield "C5", cycle_graph(5)
    yield "FAM(1)", builtin_graph("FAM(1)")
    if level == "full":
        yield "C6", cycle_graph(6)
        yield "C7", cycle_graph(7)
        yield "C8", cycle_graph(8)


def check_profiles_and_length_bounds(level: str) -> tuple[bool, str]:
    failures: list[str] = []
    names = []
    for name, G in _profile_instances(level):
        names.append(name)
        depth_profile(G)  # raises unless non-increasing and ending at the limit
    bound_graphs = [("FIG1", builtin_graph("FIG1")), ("FIG2", builtin_graph("FIG2")),
                    ("FIG3", builtin_graph("FIG3")), ("FAM(2)", builtin_graph("FAM(2)"))]
    bound_graphs += [(f"P{r}", path_graph(r)) for r in range(2, 8)]
    bound_graphs += [(f"C{r}", cycle_graph(r)) for r in range(3, 9)]
    for name, G in bound_graphs:
        s = ordered_matching_number(G)
        cap = 2 * s - 1 if is_bipartite(G) else 4 * s - 3
        for om in enumerate_max_ordered_matchings(G):
            val = alt_path_length(G, om)
            _expect(failures, val <= cap, f"{name}: length {val} > cap {cap} on {om.pairs}")
    return not failures, "; ".join(failures) or f"profiles on {names} monotone and stabilized; length caps hold"


def check_field_sensitivity(level: str) -> tuple[bool, str]:
    failures: list[str] = []
    cx = from_facets(6, RP2_FACETS)
    rational = reduced_homology(cx, Rationals())
    mod2 = reduced_homology(cx, PrimeField(2))
    _expect(failures, rational.get(1, 0) == 0 and rational.get(2, 0) == 0,
            f"rational profile {rational}")
    _expect(failures, mod2.get(1, 0) == 1 and mod2.get(2, 0) == 1,
            f"GF(2) profile {mod2}")
    G = builtin_graph("CHAR16")
    _expect(failures, len(G.edges) == 30, "corpus edge list corrupted")
    nu = matching_number(G)
    _expect(failures, nu <= 6, f"nu {nu} > 6")
    nu0 = ordered_matching_number(G)
    ell = min_alt_path_length(G)
    _expect(failures, ell <= 2 * nu0 - 1 <= 11,
            f"length {ell} vs bipartite cap {2 * nu0 - 1}")
    # the grid's depth at n = 1 is above the limit over Q and at it over
    # GF(2), and equals r - reg over each field, the value the oracle reads
    # at n = 1; the oracle decides each field's index from the bound
    limit = limit_depth(G)
    over_q = _grid_depth(G, 1, Rationals())
    over_2 = _grid_depth(G, 1, PrimeField(2))
    _expect(failures, limit == 11 and over_q == 12, f"depth over Q at n=1 is {over_q}, limit {limit}")
    _expect(failures, over_2 == limit, f"depth over GF(2) at n=1 is {over_2}, limit {limit}")
    for label, field, d1 in (("Q", Rationals(), over_q), ("GF(2)", PrimeField(2), over_2)):
        reg = reg_edge_ideal(G, field, force=True)
        _expect(failures, d1 == G.vertex_count - reg,
                f"depth over {label} at n=1 is {d1}, but r - reg = {G.vertex_count - reg}")
    stab_q = stability_index_oracle(G, Rationals(), force=True)
    stab_2 = stability_index_oracle(G, PrimeField(2), force=True)
    _expect(failures, stab_q == 2, f"sdstab over Q is {stab_q}, expected 2")
    _expect(failures, stab_2 == 1, f"sdstab over GF(2) is {stab_2}, expected 1")
    detail = ("; ".join(failures) or
              f"projective plane splits the fields; CHAR16 (nu={nu}, nu0={nu0}, length={ell}) "
              f"at n=1 has depth {over_q} over Q, above the limit {limit}, and {over_2} over GF(2), "
              f"at the limit, each equal to r - reg; sdstab_Q = {stab_q} and sdstab_GF(2) = {stab_2}")
    return not failures, detail


def _equivalence_instances():
    yield "P2", path_graph(2)
    yield "P4", path_graph(4)
    yield "P6", path_graph(6)
    yield "P8", path_graph(8)
    yield "FIG3", builtin_graph("FIG3")
    yield "FAM(1)", builtin_graph("FAM(1)")
    yield "2K2", Graph.make(4, [(1, 2), (3, 4)])
    yield "3K2", Graph.make(6, [(1, 2), (3, 4), (5, 6)])


def check_oracle_certificate_equivalence(level: str) -> tuple[bool, str]:
    failures: list[str] = []
    names = []
    for name, G in _equivalence_instances():
        names.append(name)
        cert = stability_certificate(G).value
        oracle = stability_index_oracle(G)
        _expect(failures, cert == oracle, f"{name}: certificate {cert} != oracle {oracle}")
    return not failures, "; ".join(failures) or f"certificate = oracle on {names}"


CRITERIA: list[tuple[int, str, str, Callable[[str], tuple[bool, str]]]] = [
    (1, "path closed form", "quick", check_path_closed_form),
    (2, "odd cycles", "quick", check_odd_cycles),
    (3, "even cycles", "quick", check_even_cycles),
    (4, "edge-ideal regularity", "quick", check_regularity),
    (5, "depth/regularity duality", "quick", check_depth_reg_duality),
    (6, "FIG1 self-check", "quick", check_fig1),
    (7, "FIG3 self-check", "quick", check_fig3),
    (8, "FIG2 divergence record", "quick", check_fig2),
    (9, "family example", "quick", check_family),
    (10, "bound sweep", "full", check_bound_sweep),
    (11, "forest equality sweep", "full", check_forest_sweep),
    (12, "profiles and length caps", "quick", check_profiles_and_length_bounds),
    (13, "field sensitivity", "full", check_field_sensitivity),
    (14, "oracle/certificate equivalence", "full", check_oracle_certificate_equivalence),
]


def run_verification(level: str = "quick") -> list[CheckResult]:
    """One result per criterion of the level; a criterion that raises has
    failed, with the exception as its detail, and the others still run."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    results = []
    for num, name, min_level, fn in CRITERIA:
        if level == "quick" and min_level == "full":
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(level)
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(num, name, passed, detail, time.perf_counter() - start))
    return results


def verify_corpus(level: str = "quick") -> bool:
    """Run the requested level and print one pass/fail line per criterion."""
    results = run_verification(level)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        ok &= res.passed
        print(f"[{status}] {res.criterion:>2} {res.name} ({res.seconds:.1f}s): {res.detail}")
    return ok
