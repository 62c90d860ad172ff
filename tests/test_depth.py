import os
import random
import subprocess
import sys
from collections import OrderedDict
from itertools import combinations
from pathlib import Path

import pytest

import coverdepth

from coverdepth import depth
from coverdepth.depth import (
    _fold,
    _frontier_order,
    _greedy_matching,
    _qualifying_subsets,
    _top_degree,
    BudgetRefusal,
    CertificateInapplicableError,
    depth_profile,
    depth_symbolic,
    feasible_exponents,
    limit_depth,
    reg_edge_ideal,
    stability_certificate,
    StabilityResult,
    stability_index,
    stability_index_oracle,
)
from coverdepth.families import random_graphs
from coverdepth.graphs import Graph, GraphError, builtin_graph, cycle_graph, path_graph
from coverdepth.linalg import PrimeField, Rationals, rank
from coverdepth.matchings import has_perfect_ordered_matching
from coverdepth.verification import _duality_instances
from brute import (
    brute_frontier_order,
    brute_qualifying_subsets,
    dense_max_nonzero_degree,
    brute_reg_edge_ideal,
    brute_support_depth,
    brute_symbolic_depth,
    dense_boundary,
    independence_complex,
    naive_rank,
    naive_rank_mod,
    random_small_graph,
    sparse_rows,
)


def test_depth_examples():
    assert depth_symbolic(path_graph(2), 1) == 0
    assert [depth_symbolic(cycle_graph(5), n) for n in (1, 2, 3)] == [2, 2, 2]
    assert depth_symbolic(path_graph(4), 1) == 2
    assert depth_symbolic(path_graph(4), 2) == 1


def test_depth_rejects_bad_input():
    with pytest.raises(GraphError):
        depth_symbolic(Graph.make(2, []), 1)
    with pytest.raises(ValueError):
        depth_symbolic(path_graph(2), 0)


def test_reg_examples():
    assert reg_edge_ideal(cycle_graph(5)) == 3
    assert reg_edge_ideal(cycle_graph(8)) == 4
    assert reg_edge_ideal(path_graph(4)) == 2
    # forest rule: induced matching number + 1
    assert reg_edge_ideal(path_graph(6)) == 3


def test_profile_c7():
    report = depth_profile(cycle_graph(7))
    assert report.profile == {1: 4, 2: 4, 3: 3, 4: 3, 5: 3}
    assert report.stability_index == 3
    assert report.limit_depth == 3 and report.nu0 == 3


def test_profile_single_pair_graph():
    report = depth_profile(path_graph(2))
    assert report.profile == {1: 0}
    assert report.stability_index == 1


def test_limit_depth():
    assert limit_depth(cycle_graph(7)) == 3
    assert limit_depth(builtin_graph("FIG1")) == 3


def test_oracle_stability_examples():
    assert stability_index_oracle(cycle_graph(4)) == 1
    assert stability_index_oracle(path_graph(6)) == 3
    assert stability_index_oracle(cycle_graph(7)) == 3


def test_certificate_examples():
    out = stability_certificate(builtin_graph("FIG1"))
    assert out.value == 7
    # the witness satisfies the separation constraints at n = 7
    G = builtin_graph("FIG1")
    pair_edges = {tuple(sorted(p)) for p in out.pairs}
    for u, v in G.edge_list:
        total = out.witness[u] + out.witness[v]
        assert total == 6 if (u, v) in pair_edges else total >= 7
    assert stability_certificate(builtin_graph("FAM(1)")).value == 2
    p2 = stability_certificate(path_graph(2))
    assert p2.value == 1 and p2.witness == {1: 0, 2: 0}


def test_certificate_refuses_without_perfect_matching():
    with pytest.raises(CertificateInapplicableError):
        stability_certificate(path_graph(3))


def test_certificate_refuses_unorderable_perfect_matching():
    # C4 has two perfect matchings, so no perfect ordered matching exists and
    # the exponent search would never become feasible
    with pytest.raises(CertificateInapplicableError):
        stability_certificate(cycle_graph(4))


def test_feasibility_threshold_is_sharp():
    G = builtin_graph("FIG1")
    om = has_perfect_ordered_matching(G)
    assert feasible_exponents(G, om, 6) is None
    assert feasible_exponents(G, om, 7) is not None


def test_stability_modes():
    fig3 = builtin_graph("FIG3")
    auto = stability_index(fig3, mode="auto")
    assert auto.value == 3 and auto.method == "certificate+oracle"
    oracle = stability_index(fig3, mode="oracle")
    assert oracle.value == 3 and oracle.method == "oracle"
    cert = stability_index(fig3, mode="certificate")
    assert cert.value == 3 and cert.witness is not None
    comb = stability_index(fig3, mode="combinatorial")
    assert comb.value == 3 and comb.method == "certificate"
    with pytest.raises(ValueError):
        stability_index(fig3, mode="quantum")
    with pytest.raises(CertificateInapplicableError):
        stability_index(path_graph(3), mode="certificate")


def test_stability_closed_forms_first():
    assert stability_index(path_graph(8)) == StabilityResult(4, "closed-form")
    assert stability_index(cycle_graph(7), mode="combinatorial") == StabilityResult(3, "closed-form")
    assert stability_index(path_graph(8), mode="oracle").method == "oracle"


def test_stability_auto_skips_expensive_cross_check():
    res = stability_index(builtin_graph("FIG1"), mode="auto")
    assert res.value == 7
    assert res.method == "certificate"


def test_stability_auto_cross_check_refusal_keeps_certificate():
    # FIG3's cross-check passes the cross-check limit, but a budget of 1000
    # refuses the oracle it runs; auto then returns the bare certificate
    res = stability_index(builtin_graph("FIG3"), budget=1000)
    assert (res.value, res.method) == (3, "certificate")


def test_budget_refusal_large_graph():
    with pytest.raises(BudgetRefusal):
        depth_symbolic(builtin_graph("CHAR16"), 1)
    with pytest.raises(BudgetRefusal):
        reg_edge_ideal(builtin_graph("CHAR16"))


def test_profile_refused_before_any_depth(monkeypatch):
    # FIG3 over GF(2): nu0 = 4, and the estimate 14^8 at n = 7 passes the
    # default budget, so the profile refuses before it computes n = 1..6
    calls = []
    monkeypatch.setattr(depth, "depth_symbolic", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(BudgetRefusal, match=r"\(r=8, n=7\)"):
        depth_profile(builtin_graph("FIG3"), PrimeField(2))
    assert calls == []


def test_budget_refusal_reports_estimate():
    with pytest.raises(BudgetRefusal) as err:
        depth_symbolic(path_graph(8), 4, budget=10)
    assert "estimated cost 16777216 exceeds budget 10" in str(err.value)


def test_stability_auto_falls_back_to_class_equality():
    # a spider on 5 vertices: no closed form and no perfect matching; with a
    # tiny budget the oracle refuses and the forest equality supplies the value
    spider = Graph.make(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    res = stability_index(spider, mode="auto", budget=1)
    assert res.value == 2 and res.method == "equality-class"


def test_stability_auto_reports_budget_instead_of_raising():
    res = stability_index(builtin_graph("CHAR16"))
    assert (res.value, res.method) == (None, "not computed (budget)")


def _dense_graphs():
    # seeded G(7, 10..12) and G(8, 12): dense enough that the visit stops
    # at the matching ceiling well before the former rule would
    rng = random.Random(1)
    return [Graph.make(r, rng.sample(list(combinations(range(1, r + 1), 2)), m))
            for r, m in ((7, 10), (7, 11), (7, 12), (8, 12))]


def _decode(codes, induced):
    """The grid's bit codes as edge tuples (bit i stands for induced[i])."""
    return [tuple(e for bit, e in enumerate(induced) if code >> bit & 1) for code in codes]


def _covered(E):
    return len({v for e in E for v in e})


def test_one_grid_search_matches_support_loop():
    # the single {0..n}^V search, with its visit stopped at the matching
    # ceiling, against one grid scan per negative support with the cone
    # filter and no early exit, over Q and GF(2); the graphs include
    # isolated vertices, disconnected graphs, complete graphs, cycles and the
    # dense graphs (at their seed a cut one step earlier gives a wrong depth)
    rng = random.Random(79)
    graphs = [random_small_graph(rng, max_r=5) for _ in range(10)]
    rng = random.Random(181)
    graphs += [random_small_graph(rng, max_r=7) for _ in range(6)]
    graphs += [cycle_graph(r) for r in (5, 6, 7, 8)]
    graphs += [Graph.make(k, combinations(range(1, k + 1), 2)) for k in (5, 6)]
    graphs += [Graph.make(5, [(1, 2), (3, 4)]), Graph.make(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)])]
    graphs += _dense_graphs()
    for G in graphs:
        for n in (1, 2, 3):
            for field in (Rationals(), PrimeField(2)):
                assert depth_symbolic(G, n, field) == brute_support_depth(G, n, field), (G.edge_list, n, field)


def _neighbour_masks(E):
    """The vertex -> neighbour mask form (bit v - 1 for v) that the visit folds."""
    nbr = {}
    for u, v in E:
        nbr[u] = nbr.get(u, 0) | 1 << (v - 1)
        nbr[v] = nbr.get(v, 0) | 1 << (u - 1)
    return nbr


def _edges_of(nbr):
    return frozenset((u, v) for u, Nu in nbr.items() for v in range(u + 1, Nu.bit_length() + 1) if Nu >> (v - 1) & 1)


@pytest.fixture
def fold_visits(monkeypatch):
    """The edge sets that depth_symbolic's visit hands to the fold, in order:
    every set that passes both cuts."""
    fold, visited = depth._fold, []

    def recording_fold(nbr):
        visited.append(_edges_of(nbr))
        return fold(nbr)

    monkeypatch.setattr(depth, "_fold", recording_fold)
    return visited


def test_matching_ceiling_cut_skips_edge_sets(fold_visits):
    # the visit stops once r - 1 - floor(|V(E)|/2) reaches the best value (4)
    # and skips E once r - 1 - |M| does, for its greedy maximal matching M
    # (5).  The sets that reach the fold are fewer than the former rule, stop
    # once r - |V(E)| exceeds the best, visits (every E with r - |V(E)| <=
    # depth), and fewer than the ceiling (4) alone lets through
    for G in _dense_graphs() + [cycle_graph(7), cycle_graph(8)]:
        r = G.vertex_count
        grid = _decode(_qualifying_subsets(list(_frontier_order(G)), list(G.edge_list), 2, 2), G.edge_list)
        fold_visits.clear()
        d = depth_symbolic(G, 2, Rationals())
        former = sum(1 for E in grid if r - _covered(E) <= d)
        ceiling = sum(1 for E in grid if r - 1 - _covered(E) // 2 < d)
        assert len(fold_visits) < former, (G.edge_list, len(fold_visits), former)
        assert len(fold_visits) < ceiling, (G.edge_list, len(fold_visits), ceiling)


def test_visit_takes_decoded_sets_by_size_then_code(fold_visits):
    # the edge sets that depth_symbolic folds are the grid's codes decoded,
    # in descending |V(E)| and then ascending code, cut exactly where the
    # ceiling r - 1 - floor(|V(E)|/2) reaches the best (4), less the sets
    # whose greedy maximal matching M has r - 1 - |M| >= best (5); no set
    # that (5) skips could have lowered the best
    for G in _dense_graphs() + [cycle_graph(7)]:
        r, edges = G.vertex_count, G.edge_list
        codes = _qualifying_subsets(list(_frontier_order(G)), list(edges), 2, 2)
        expected, skipped, best = [], [], None
        for _, E in sorted(zip(codes, _decode(codes, edges)), key=lambda ce: (-_covered(ce[1]), ce[0])):
            if best is not None and r - 1 - _covered(E) // 2 >= best:
                break
            if best is not None and len(_greedy_matching(_neighbour_masks(E), r - 1 - best)) <= r - 1 - best:
                skipped.append(E)
                continue
            expected.append(frozenset(E))
            j = dense_max_nonzero_degree(frozenset(E), Rationals())
            if j is not None and (best is None or r - 2 - j < best):
                best = r - 2 - j
        fold_visits.clear()
        assert depth_symbolic(G, 2, Rationals()) == best
        assert fold_visits == expected, G.edge_list
        assert skipped and len(expected) + len(skipped) < len(codes), G.edge_list
        for E in skipped:
            j = dense_max_nonzero_degree(frozenset(E), Rationals())
            assert j is None or r - 2 - j >= best, (G.edge_list, E)


def test_greedy_matching_is_maximal_and_stops_at_room():
    # the helper's pairs are disjoint edges and every edge touches one; with
    # room k below the full size it returns the first k + 1 pairs only
    rng = random.Random(311)
    graphs = [random_small_graph(rng, max_r=8) for _ in range(40)]
    graphs += [cycle_graph(7), Graph.make(6, combinations(range(1, 7), 2))]
    for G in graphs:
        E = G.edge_list
        full = _greedy_matching(_neighbour_masks(E), len(E))
        matched = [v for pair in full for v in pair]
        assert len(matched) == len(set(matched)), E
        assert all(tuple(sorted(pair)) in G.edges for pair in full), E
        assert all(u in matched or v in matched for u, v in E), E
        for room in range(len(full)):
            assert _greedy_matching(_neighbour_masks(E), room) == full[:room + 1], (E, room)


def test_depth_against_naive_takayama_enumeration():
    # the vectorized dual-side oracle against a direct degree-complex scan
    rng = random.Random(139)
    for _ in range(8):
        G = random_small_graph(rng, max_r=5)
        for n in (1, 2):
            assert depth_symbolic(G, n) == brute_symbolic_depth(G, n)
    G = cycle_graph(5)
    assert depth_symbolic(G, 2, PrimeField(2)) == brute_symbolic_depth(G, 2, PrimeField(2))


def test_depth_reg_duality_random():
    rng = random.Random(91)
    for _ in range(10):
        G = random_small_graph(rng, max_r=6)
        assert depth_symbolic(G, 1) == G.vertex_count - reg_edge_ideal(G)


def _hochster_graphs():
    # the dense graphs (FIG2, FAM(2), seeded 8-vertex graphs with edge
    # probability >= 0.5) have many faces that share one closed
    # neighbourhood N[F]
    rng = random.Random(53)
    graphs = [random_small_graph(rng, max_r=7) for _ in range(30)]
    graphs += [cycle_graph(5), cycle_graph(7), cycle_graph(8)]
    graphs += [builtin_graph(name) for name in ("FIG1", "FIG2", "FIG3", "FAM(1)", "FAM(2)")]
    for p in (0.5, 0.6, 0.7, 0.8):
        graphs.append(Graph.make(8, [e for e in combinations(range(1, 9), 2) if rng.random() < p]))
    return graphs


def test_reg_against_hochster_formula():
    # link scan through the oracle's reduction and memo against Hochster's
    # formula over every induced subgraph, with no links and no memo
    for G in _hochster_graphs():
        for field in (Rationals(), PrimeField(2)):
            assert reg_edge_ideal(G, field) == brute_reg_edge_ideal(G, field), (G.edge_list, field)


def test_boundary_ranks_of_ind_against_naive():
    # the dense engine behind the kernel tests reads its ranks from
    # linalg.rank, so every boundary matrix of Ind(G), built here as a dense
    # matrix, is also ranked by the Fraction and mod-p references
    for G in _hochster_graphs():
        cx = independence_complex(G)
        for d in range(cx.dim + 1):
            rows = dense_boundary(cx, d)
            sparse = sparse_rows(rows)
            assert rank(sparse, Rationals()) == naive_rank(rows), (G.edge_list, d)
            for p in (2, 3):
                assert rank(sparse, PrimeField(p)) == naive_rank_mod(rows, p), (G.edge_list, d, p)


def test_memo_holds_only_unfoldable_connected_parts(monkeypatch):
    # both callers reduce before the memo, so every key is a connected edge
    # set with more than one edge on which the fold deletes nothing
    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE", OrderedDict())
    for G in _hochster_graphs():
        for field in (Rationals(), PrimeField(2)):
            depth_symbolic(G, 1, field)
            depth_symbolic(G, 2, field)
            reg_edge_ideal(G, field)
    assert depth._MAX_DEGREE_CACHE
    for key, _ in depth._MAX_DEGREE_CACHE:
        nbr = _neighbour_masks(key)
        assert len(key) > 1 and _fold(nbr) == [sum(1 << (v - 1) for v in nbr)], sorted(key)
        assert _edges_of(nbr) == key, sorted(key)


C5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
C5_C5 = frozenset(C5 + [(u + 5, v + 5) for u, v in C5])
# connected, no fold applies, and Ind is acyclic over Q and GF(2)
ACYCLIC_UNFOLDABLE = [(1, 3), (1, 4), (2, 5), (2, 9), (3, 5), (3, 6), (4, 7), (4, 8),
                      (5, 7), (5, 9), (6, 8), (6, 9)]
UNION_WITH_ACYCLIC = [(10, 11), (12, 13)] + ACYCLIC_UNFOLDABLE


def _disjoint_edges(m):
    return frozenset((2 * k + 1, 2 * k + 2) for k in range(m))


def _kernel_and_dense(edges, field=Rationals()):
    return _top_degree(_neighbour_masks(edges), field), dense_max_nonzero_degree(frozenset(edges), field)


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE", OrderedDict())


def test_fold_reduces_star_to_an_edge(empty_memo):
    star = [(1, 2), (1, 3), (1, 4)]  # K_{1,3}: the leaves fold onto one
    parts = _fold(_neighbour_masks(star))
    assert len(parts) == 1 and parts[0].bit_count() == 2
    assert _kernel_and_dense(star) == (0, 0)


def test_cone_left_after_a_fold(empty_memo):
    # P4: N(1) lies in N(3), so 3 goes, and 4 is left with no neighbour
    p4 = [(1, 2), (2, 3), (3, 4)]
    assert _fold(_neighbour_masks(p4)) is None
    assert _kernel_and_dense(p4) == (None, None)


def test_vertex_without_neighbour_on_entry_is_a_cone():
    assert _fold({1: 0}) is None
    assert _fold({1: 0b10, 2: 0b1, 3: 0}) is None
    assert _top_degree({3: 0, 1: 0b10, 2: 0b1}, Rationals()) is None
    assert _top_degree({}, Rationals()) == -1  # Ind of no vertex is {{}}


def test_disjoint_edges_add_one_each(empty_memo):
    for m in range(1, 5):
        assert len(_fold(_neighbour_masks(_disjoint_edges(m)))) == m
        for field in (Rationals(), PrimeField(2)):
            assert _kernel_and_dense(_disjoint_edges(m), field) == (m - 1, m - 1)


def test_two_pentagons_join_to_a_three_sphere(empty_memo):
    assert len(_fold(_neighbour_masks(C5_C5))) == 2
    assert _kernel_and_dense(C5_C5) == (3, 3)  # 1 + 1 + one join
    assert depth._MAX_DEGREE_CACHE[(frozenset(C5), Rationals())] == 1


def test_acyclic_component_makes_the_union_acyclic(empty_memo):
    nbr = _neighbour_masks(ACYCLIC_UNFOLDABLE)
    assert _fold(nbr) == [(1 << 9) - 1] and _edges_of(nbr) == frozenset(ACYCLIC_UNFOLDABLE)
    assert len(_fold(_neighbour_masks(UNION_WITH_ACYCLIC))) == 3
    for field in (Rationals(), PrimeField(2)):
        assert _kernel_and_dense(UNION_WITH_ACYCLIC, field) == (None, None)


def test_reduced_kernel_matches_dense(monkeypatch):
    # the fold, cone and component rules against the dense engine with no
    # memo, over Q and GF(2): every edge set the grid search returns for
    # n = 1..3 on seeded random graphs with r <= 9 and for n = 1..sdstab on
    # the bound sweep's graphs, and every link that reg_edge_ideal reads on
    # the criterion-4/5 graphs
    powers = [(inst.graph, range(1, 4)) for inst in random_graphs(seed=0, count=8, max_r=9)]
    powers += [(inst.graph, range(1, stability_index_oracle(inst.graph) + 1))
               for inst in random_graphs(seed=417, count=100, max_r=8)]
    edge_sets = set()
    for G, ns in powers:
        for n in ns:
            codes = _qualifying_subsets(list(_frontier_order(G)), list(G.edge_list), n, n)
            edge_sets.update(map(frozenset, _decode(codes, G.edge_list)))

    def recording(nbr, field):
        edge_sets.add(_edges_of(nbr))  # before the fold consumes the masks
        return _top_degree(nbr, field)

    monkeypatch.setattr(depth, "_top_degree", recording)
    for G in [cycle_graph(r) for r in (5, 7, 8)] + [G for _, G in _duality_instances("full")]:
        reg_edge_ideal(G)
    monkeypatch.setattr(depth, "_top_degree", _top_degree)
    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE", OrderedDict())
    edge_sets.discard(frozenset())  # links with no edge
    assert len(edge_sets) > 17000
    for key in edge_sets:
        ceiling = len({v for e in key for v in e}) // 2 - 1  # j + 2 <= reg I(E) <= nu(E) + 1
        # Woodroofe: reg I(E) <= |M| + 1 for every maximal matching M
        match_ceiling = len(_greedy_matching(_neighbour_masks(key), len(key))) - 1
        for field in (Rationals(), PrimeField(2)):
            dense = dense_max_nonzero_degree(key, field)
            assert _top_degree(_neighbour_masks(key), field) == dense, (sorted(key), field)
            assert dense is None or dense <= ceiling, (sorted(key), field)
            assert dense is None or dense <= match_ceiling, (sorted(key), field)


def test_max_degree_cache_is_bounded(monkeypatch):
    # a tiny cap evicts constantly, also while a union is split into
    # components that go through the same memo; the dict never outgrows the
    # cap, it evicts the oldest entry first, and every answer matches the run
    # with the full-size memo
    rng = random.Random(67)
    graphs = [random_small_graph(rng, max_r=6) for _ in range(8)] + [cycle_graph(7)]
    unions = [C5_C5, _disjoint_edges(3), frozenset(UNION_WITH_ACYCLIC), frozenset(C5 + [(6, 7), (8, 9)])]
    fields = (Rationals(), PrimeField(2))

    def answers():
        return ([(depth_symbolic(G, 2), reg_edge_ideal(G)) for G in graphs],
                [_top_degree(_neighbour_masks(key), field) for key in unions for field in fields])

    expected = answers()

    class Watched(OrderedDict):
        peak = 0
        inserted: list = []
        evicted: list = []

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            Watched.peak = max(Watched.peak, len(self))
            Watched.inserted.append(key)

        def popitem(self, last=True):
            item = super().popitem(last=last)
            Watched.evicted.append(item[0])
            return item

    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE_SIZE", 4)
    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE", Watched())
    assert answers() == expected
    assert 0 < Watched.peak <= 4
    # first in, first out: the evictions replay the insertions in order
    assert Watched.evicted and Watched.evicted == Watched.inserted[:len(Watched.evicted)]
    assert frozenset(C5) in {key[0] for key in Watched.inserted}  # a component read through the memo


def test_depth_over_gf2_matches_rationals_on_torsion_free_instances():
    for G in (path_graph(5), cycle_graph(5), builtin_graph("FAM(1)")):
        assert depth_symbolic(G, 1, PrimeField(2)) == depth_symbolic(G, 1)


def test_profile_monotone_random():
    rng = random.Random(107)
    for _ in range(8):
        G = random_small_graph(rng, max_r=6)
        report = depth_profile(G)
        vals = [report.profile[n] for n in sorted(report.profile)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == report.limit_depth
        assert report.stability_index == min(
            n for n in sorted(report.profile) if report.profile[n] <= report.limit_depth
        )


GRID_SCAN_LIMIT = 1 << 14  # grid points the brute-force scan may visit per case


def _grid_instances(G, rng):
    """(rest, induced) for the empty support and three random supports."""
    verts = list(G.vertices())
    for size in (0, 1, 2, rng.randint(1, len(verts) - 1)):
        support = set(rng.sample(verts, size))
        induced = [e for e in G.edge_list if not support.intersection(e)]
        if induced:
            yield [v for v in verts if v not in support], induced


def _assert_matches_scan(G, rest, induced, n, cap, rng):
    want = brute_qualifying_subsets(rest, induced, n, cap)
    frontier = [v for v in _frontier_order(G) if v in rest]
    for order in (rest, rng.sample(rest, len(rest)), frontier):
        codes = _qualifying_subsets(order, induced, n, cap)
        assert codes == sorted(set(codes)), "edge sets must be distinct, in ascending bit code"
        assert set(_decode(codes, induced)) == want, (G.edge_list, order, n, cap)


def test_qualifying_subsets_match_grid_scan():
    # the frontier search against a scan of every grid point, for the caps
    # n - 2 (an edge's threshold then passes the top value), n - 1, n (the
    # oracle's, value n marking the support) and n + 1, in three vertex orders
    rng = random.Random(223)
    cases = [(builtin_graph(name), 2) for name in ("FIG1", "FIG2", "FIG3", "FAM(1)", "FAM(2)")]
    cases += [(random_small_graph(rng, max_r=8), 3) for _ in range(10)]
    checked = 0
    for G, top in cases:
        assert sorted(_frontier_order(G)) == list(G.vertices())
        for n in range(1, top + 1):
            for cap in range(max(n - 2, 0), n + 2):
                for rest, induced in _grid_instances(G, rng):
                    if (cap + 1) ** len(rest) <= GRID_SCAN_LIMIT:
                        _assert_matches_scan(G, rest, induced, n, cap, rng)
                        checked += 1
    assert checked > 200


def test_qualifying_subsets_beyond_64_edges():
    # K12 has 66 edges, more than one machine word of edge bits
    G = Graph.make(12, combinations(range(1, 13), 2))
    rest, induced = list(G.vertices()), list(G.edge_list)
    assert _decode(_qualifying_subsets(rest, induced, 1, 0), induced) == [tuple(induced)]
    got = _decode(_qualifying_subsets(rest, induced, 2, 1), induced)
    assert set(got) == brute_qualifying_subsets(rest, induced, 2, 1)
    # the vertices valued 1 fix the set: at most one of them leaves every
    # edge, all twelve leave none, and every other choice is its own set
    assert len(got) == 2 ** 12 - 13
    # the oracle's visit reads |V(E)| from one table per byte of code: nine here
    assert depth_symbolic(G, 1) == 12 - reg_edge_ideal(G) == 10


def test_frontier_order_matches_set_reference():
    graphs = [builtin_graph(name) for name in ("FIG1", "FIG2", "FIG3", "FAM(1)", "FAM(2)", "CHAR16")]
    graphs += [inst.graph for inst in random_graphs(seed=0, count=200, max_r=9)]
    for G in graphs:
        assert _frontier_order(G) == brute_frontier_order(G), G.edge_list


def test_package_imports_without_numpy():
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from coverdepth import cycle_graph, depth_symbolic\n"
            "print(depth_symbolic(cycle_graph(7), 3))\n")
    src = str(Path(coverdepth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3"
