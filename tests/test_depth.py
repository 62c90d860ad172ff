import os
import random
import subprocess
import sys
from collections import Counter, OrderedDict
from itertools import combinations
from pathlib import Path

import pytest

import coverdepth

from coverdepth import altpaths, depth
from coverdepth.altpaths import (
    CertificateConstructionError,
    _shortest_max_ordered,
    min_alt_path_length,
    shifted_exponents,
    stability_bound,
)
from coverdepth.analyzer import AnalyzeOptions, analyze
from coverdepth.complexes import reduced_homology
from coverdepth.degree import _independence_complex
from coverdepth.depth import (
    _fold,
    _frontier_order,
    _grid_depth,
    _link_masks,
    _link_scan,
    _polarized_masks,
    _qualifying_subsets,
    _top_degree,
    _top_over,
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
from coverdepth.matchings import has_perfect_ordered_matching, ordered_matching_number
from coverdepth.verification import _duality_instances
from brute import (
    bit_order_matching,
    brute_closed_neighbourhoods,
    brute_stability_index,
    brute_frontier_order,
    brute_qualifying_subsets,
    dense_max_nonzero_degree,
    brute_reg_edge_ideal,
    brute_support_depth,
    brute_symbolic_depth,
    dense_boundary,
    face_masks,
    facet_homology,
    facet_independence_complex,
    fold_reduced,
    grown_closed_neighbourhoods,
    independence_complex,
    naive_rank,
    naive_rank_mod,
    neighbour_pairs,
    non_cone_neighbourhoods,
    polarized_graph,
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


def test_reg_is_scanned_once_per_graph_behind_the_budget():
    # the oracle's depth(1) and the report's checks read reg I(G) from one
    # memo, also when a later power of the walk is refused; the memo sits
    # behind the admission rule, so a cached reg never admits a refused call
    c5, fig3 = cycle_graph(5), builtin_graph("FIG3")

    def misses(run) -> tuple[int, dict]:
        before = depth._reg.cache_info().misses
        report = run()
        return depth._reg.cache_info().misses - before, {c.name: c for c in report.checks}

    depth._reg.cache_clear()
    count, checks = misses(lambda: analyze(c5, options=AnalyzeOptions(mode="oracle")))
    assert count == 1
    assert checks["constant-depth-iff"] == ("constant-depth-iff", "pass", "reg=3, nu0+1=3")
    # budget 2^8 admits FIG3's n = 1 but refuses B = 3, and then n = 2 on the upward scan
    count, checks = misses(lambda: analyze(fig3, options=AnalyzeOptions(budget=2 ** 8)))
    assert count == 1
    assert checks["constant-depth-iff"].status == "pass"
    assert checks["constant-depth-iff"].detail == f"reg={reg_edge_ideal(fig3)}, nu0+1=5"
    count, _ = misses(lambda: analyze(path_graph(5), options=AnalyzeOptions(mode="combinatorial")))
    assert count == 0
    assert reg_edge_ideal(c5) == 3
    for call in (lambda: reg_edge_ideal(c5, budget=1), lambda: depth_symbolic(c5, 1, budget=1)):
        with pytest.raises(BudgetRefusal):
            call()


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
    monkeypatch.setattr(depth, "_grid_depth", lambda *args, **kwargs: calls.append(args))
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
                want = brute_support_depth(G, n, field)
                assert _grid_depth(G, n, field) == depth_symbolic(G, n, field) == want, (G.edge_list, n, field)


def _neighbour_masks(E):
    """The vertex -> neighbour mask form (bit v - 1 for v) that the visit folds."""
    nbr = {}
    for u, v in E:
        nbr[u] = nbr.get(u, 0) | 1 << (v - 1)
        nbr[v] = nbr.get(v, 0) | 1 << (u - 1)
    return nbr


def _edges_of(nbr):
    return frozenset((u, v) for u, Nu in nbr.items() for v in range(u + 1, Nu.bit_length() + 1) if Nu >> (v - 1) & 1)


def _mask_key(E):
    """The memo key that ``_top_degree`` builds for a connected part with edges E."""
    return frozenset(_neighbour_masks(E).items())


@pytest.fixture
def fold_visits(monkeypatch):
    """The edge sets that depth_symbolic's visit hands to the fold, in order:
    every set before the ceiling cut."""
    fold, visited = depth._fold, []

    def recording_fold(nbr):
        visited.append(_edges_of(nbr))
        return fold(nbr)

    monkeypatch.setattr(depth, "_fold", recording_fold)
    return visited


def _degree_sum_order(G):
    """G's edges by descending degree sum, ties in ``edge_list`` order: the
    numbering of the edge bits in depth_symbolic's visit."""
    degree = Counter(v for e in G.edges for v in e)
    return sorted(G.edge_list, key=lambda e: -(degree[e[0]] + degree[e[1]]))


def test_matching_ceiling_cut_skips_edge_sets(fold_visits):
    # the visit stops once r - 1 - |M| reaches the best value, for the
    # bit-order maximal matching M of each set (ceiling (4)).  The sets that
    # reach the fold are fewer than the former rule, stop once r - |V(E)|
    # exceeds the best, visits (every E with r - |V(E)| <= depth), and fewer
    # than the looser ceiling r - 1 - floor(|V(E)|/2) lets through
    for G in _dense_graphs() + [cycle_graph(7), cycle_graph(8)]:
        r = G.vertex_count
        grid = _decode(_qualifying_subsets(list(_frontier_order(G)), list(G.edge_list), 2, 2), G.edge_list)
        fold_visits.clear()
        d = _grid_depth(G, 2, Rationals())
        former = sum(1 for E in grid if r - _covered(E) <= d)
        ceiling = sum(1 for E in grid if r - 1 - _covered(E) // 2 < d)
        assert len(fold_visits) < former, (G.edge_list, len(fold_visits), former)
        assert len(fold_visits) < ceiling, (G.edge_list, len(fold_visits), ceiling)


def test_visit_takes_decoded_sets_by_size_then_code(fold_visits):
    # the edge sets that the grid engine folds are the grid's codes, with the
    # edge bits numbered by descending degree sum, in descending size of the
    # bit-order maximal matching M and then ascending code, cut exactly where
    # r - 1 - |M| reaches the best (4); no set cut away could have lowered
    # the best
    for G in _dense_graphs() + [cycle_graph(7)]:
        r, induced = G.vertex_count, _degree_sum_order(G)
        codes = _qualifying_subsets(list(_frontier_order(G)), induced, 2, 2)
        visits = sorted(((len(bit_order_matching(E)), code, E) for code, E in zip(codes, _decode(codes, induced))),
                        key=lambda visit: (-visit[0], visit[1]))
        expected, best = [], None
        for size, _, E in visits:
            if best is not None and r - 1 - size >= best:
                break
            expected.append(frozenset(E))
            j = dense_max_nonzero_degree(frozenset(E), Rationals())
            if j is not None and (best is None or r - 2 - j < best):
                best = r - 2 - j
        cut = [E for _, _, E in visits[len(expected):]]
        fold_visits.clear()
        assert _grid_depth(G, 2, Rationals()) == best
        assert fold_visits == expected, G.edge_list
        assert cut, G.edge_list
        for E in cut:
            j = dense_max_nonzero_degree(frozenset(E), Rationals())
            assert j is None or r - 2 - j >= best, (G.edge_list, E)


def _r11_case():
    """ROADMAP's r=11 case: 28 edges, nu0 = 4."""
    rng = random.Random(5)
    r = rng.randint(11, 11)
    p = rng.uniform(0.2, 0.6)
    G = Graph.make(r, [(u, v) for u in range(1, r + 1) for v in range(u + 1, r + 1) if rng.random() < p])
    assert len(G.edges) == 28
    return G


def test_r11_case_depths_under_the_default_budget():
    # at n = 3 the grid would return about 400,000 codes; the link scan on
    # G_3 answers instead
    assert [depth_symbolic(_r11_case(), n) for n in (1, 2, 3)] == [8, 7, 6]


def _gnm(seed, r, m):
    """A seeded graph with exactly m edges and no isolated vertex."""
    rng = random.Random(seed)
    pairs = list(combinations(range(1, r + 1), 2))
    while True:
        edges = rng.sample(pairs, m)
        if len({v for e in edges for v in e}) == r:
            return Graph.make(r, edges)


def _recursive_tree(seed, r):
    """A seeded random recursive tree on 1..r under a random relabelling."""
    rng = random.Random(seed)
    labels = list(range(1, r + 1))
    rng.shuffle(labels)
    return Graph.make(r, [(labels[rng.randrange(v)], labels[v]) for v in range(1, r)])


def test_link_engine_matches_the_grid_and_brute():
    # depth R/J^(n) = r - reg I(G_n) (polarization, then Terai's duality):
    # the link scan on G_n's masks against the grid, the Takayama scan and
    # Hochster's formula on the set-built G_n, over Q and GF(2)
    rng = random.Random(37)
    graphs = [random_small_graph(rng, max_r=7) for _ in range(8)]
    assert {G.vertex_count for G in graphs} == {4, 5, 6, 7}
    for G in graphs:
        r = G.vertex_count
        for n in (2, 3):
            H, masks = polarized_graph(G, n), _polarized_masks(G, n)
            assert masks == H.neighbor_masks, (G.edge_list, n)
            for field in (Rationals(), PrimeField(2)):
                link = r - _link_scan(masks, field, 1 << (len(masks) - 1))
                assert link == _grid_depth(G, n, field), (G.edge_list, n, field)
                if (n + 1) ** r <= 2500:
                    assert link == brute_symbolic_depth(G, n, field), (G.edge_list, n, field)
                if r * n <= 10:
                    assert link == r - brute_reg_edge_ideal(H, field), (G.edge_list, n, field)


def test_layer_bound_and_cap_of_the_link_scan():
    # the layer bound bounds the unpruned listing: it starts from the mask
    # of G_n's isolated vertices, so it lists the distinct N[F] that hold
    # every isolated vertex, and in G_n the layers p > (n + 1)/2 are one
    # independent set whose r' * floor(n/2) vertices that are not isolated
    # (r' those of G) give distinct N[F], so it lists at least
    # 2^(r' floor(n/2)) masks.  K3 + K1 and K2 + K1 have an isolated vertex,
    # where that count is below that of every N[F].  The scan holds only
    # the k N[F] whose link is no cone, each of which holds every isolated
    # vertex; on these five instances it completes at cap k and returns
    # None at cap k - 1
    for G, n in ((path_graph(4), 2), (cycle_graph(5), 2), (path_graph(3), 3),
                 (Graph.make(4, [(1, 2), (1, 3), (2, 3)]), 3), (Graph.make(3, [(1, 2)]), 4)):
        H = polarized_graph(G, n)
        isolated = {v for v in H.vertices() if not H.neighbor_masks[v]}
        every = brute_closed_neighbourhoods(H)
        holding = {closed for closed in every if isolated <= closed}
        assert grown_closed_neighbourhoods(H) == holding, (G.edge_list, n)
        assert (len(holding) < len(every)) == (0 in G.neighbor_masks[1:]), (G.edge_list, n)
        r_prime = sum(1 for v in G.vertices() if G.neighbor_masks[v])
        assert len(holding) >= 2 ** (r_prime * (n // 2)), (G.edge_list, n)
        links = non_cone_neighbourhoods(H, every)
        assert all(isolated <= closed for closed in links), (G.edge_list, n)
        k = len(links)
        assert k < len(holding), (G.edge_list, n)
        masks = _polarized_masks(G, n)
        full = _link_scan(masks, Rationals(), 1 << (len(masks) - 1))
        assert full is not None and _link_scan(masks, Rationals(), k) == full, (G.edge_list, n)
        assert _link_scan(masks, Rationals(), k - 1) is None, (G.edge_list, n)


def _vertex_mask(vertices):
    return sum(1 << (v - 1) for v in vertices)


@pytest.fixture
def scan_pairs(monkeypatch):
    """The (ceiling, W') pairs that the link scan hands to ``_top_over`` in
    its last call, every pair listed before the visit starts."""
    pairs, top_over = [], depth._top_over

    def listing(given, build, field):
        pairs[:] = given
        return top_over(pairs, build, field)

    monkeypatch.setattr(depth, "_top_over", listing)
    return pairs


def test_pruned_listing_and_ceiling_match_the_unpruned_scan(monkeypatch, scan_pairs):
    # seeds 0..2 of the 1,200-graph sample at n = 1..3: the listing that
    # prunes cones as they appear holds exactly the N[F] of the unpruned
    # brute listing of G_n whose link is no cone, and the visit of the
    # fold-reduced sets W' (``fold_reduced`` of V - N[F]) stopped at the
    # ceiling floor(|W'|/2) - 1 gives the value of the uncut visit over every
    # such link, over Q and GF(2).  The visit takes the distinct W' by
    # descending |W'|, then ascending mask, reads each only while its
    # ceiling is above the top so far, and stops at the first one whose
    # ceiling is not
    visits = []

    def recording(nbr, field):
        kept = _vertex_mask(nbr)  # before the fold consumes the masks
        j = _top_degree(nbr, field)
        visits.append((kept, -1 if j is None else j))
        return j

    monkeypatch.setattr(depth, "_top_degree", recording)
    graphs = [inst.graph for seed in range(3) for inst in random_graphs(seed=seed, count=40, max_r=8)]
    cut = 0
    for G in graphs:
        for n in (1, 2, 3):
            H, masks = polarized_graph(G, n), _polarized_masks(G, n)
            links = non_cone_neighbourhoods(H, grown_closed_neighbourhoods(H))
            held = _link_masks(masks, 1 << H.vertex_count)
            assert held == {_vertex_mask(closed) for closed in links}, (G.edge_list, n)
            reduced = sorted({_vertex_mask(fold_reduced(H, set(H.vertices()) - closed)) for closed in links},
                             key=lambda kept: (-kept.bit_count(), kept))
            for field in (Rationals(), PrimeField(2)):
                tops = [_top_degree({v: masks[v] & ~closed for v in H.vertices() if not closed >> (v - 1) & 1}, field)
                        for closed in held]
                uncut = 2 + max((j for j in tops if j is not None), default=-1)
                visits.clear()
                assert _link_scan(masks, field, 1 << H.vertex_count) == uncut, (G.edge_list, n, field)
                ceilings = [(kept.bit_count() // 2 - 1, kept) for kept in reduced]
                assert scan_pairs == ceilings, (G.edge_list, n, field)
                assert [kept for kept, _ in visits] == reduced[:len(visits)], (G.edge_list, n, field)
                top = -1
                for kept, j in visits:
                    assert kept.bit_count() // 2 - 1 > top, (G.edge_list, n, field)
                    top = max(top, j)
                assert len(visits) == len(reduced) or reduced[len(visits)].bit_count() // 2 - 1 <= top, \
                    (G.edge_list, n, field)
            cut += any(0 < kept.bit_count() < 2 * uncut - 2 for kept in reduced)
    assert cut > len(graphs)  # the ceiling skips a link with an edge on over a third of the powers


def test_links_are_read_through_their_fold_reduced_vertex_sets(scan_pairs):
    # seeds 0..2 of the 1,200-graph sample at n = 1..3: the distinct W' that
    # the scan visits are the sets V - N[F] of its held links, each less
    # exactly the vertices that some vertex of it lies below (``fold_reduced``:
    # N(u) a proper subset of N(v), or N(u) = N(v) and u < v).  The cut is a
    # sequence of folds, so W' has the top degree of V - N[F] over Q and
    # GF(2); on G_n, N((i, q)) lies in N((i, p)) for p < q, so no column i
    # keeps two layers
    graphs = [inst.graph for seed in range(3) for inst in random_graphs(seed=seed, count=40, max_r=8)]
    for G in graphs:
        r = G.vertex_count
        for n in (1, 2, 3):
            H, masks = polarized_graph(G, n), _polarized_masks(G, n)
            expected = set()
            for closed in _link_masks(masks, 1 << H.vertex_count):
                outside = {v for v in H.vertices() if not closed >> (v - 1) & 1}
                kept = fold_reduced(H, outside)
                expected.add(_vertex_mask(kept))
                for field in (Rationals(), PrimeField(2)):
                    whole = _top_degree({v: masks[v] & ~closed for v in outside}, field)
                    assert _top_degree({v: masks[v] & _vertex_mask(kept) for v in kept}, field) == whole, \
                        (G.edge_list, n, field)
                assert max(Counter((v - 1) % r for v in kept).values(), default=0) <= 1, (G.edge_list, n, closed)
            _link_scan(masks, Rationals(), 1 << H.vertex_count)
            assert sorted(kept for _, kept in scan_pairs) == sorted(expected), (G.edge_list, n)


def test_capped_scan_of_g_always_completes():
    # at n = 1 each listed mask less the isolated vertices is the vertex set
    # of the edges of G inside it, so the scan capped at 2^|E| never returns
    # None; seeds 0..2 of the 1,200-graph sample, where some graphs with
    # isolated vertices have more than 2^|E| closed neighbourhoods in all
    graphs = [inst.graph for seed in range(3) for inst in random_graphs(seed=seed, count=40, max_r=8)]
    isolated = [G for G in graphs if 0 in G.neighbor_masks[1:]]
    assert any(len(brute_closed_neighbourhoods(G)) > 1 << len(G.edges) for G in isolated)
    for G in graphs:
        for field in (Rationals(), PrimeField(2)):
            reg = _link_scan(G.neighbor_masks, field, 1 << len(G.edges))
            assert reg is not None and reg == brute_reg_edge_ideal(G, field), (G.edge_list, field)


@pytest.fixture
def engine_calls(monkeypatch):
    """The engines that run, in order: "grid" per grid search, "scan" per
    link scan."""
    calls = []
    grid, scan = depth._qualifying_subsets, depth._link_scan
    monkeypatch.setattr(depth, "_qualifying_subsets", lambda *args: calls.append("grid") or grid(*args))
    monkeypatch.setattr(depth, "_link_scan", lambda *args: calls.append("scan") or scan(*args))
    return calls


def test_engine_choice(engine_calls):
    # the grid with no scan where r * floor(n/2) > |E| (the 8-vertex trees
    # at n = 6, FAM(2) at n >= 4), the grid after a scan stopped by the cap
    # where it would hold more than 2^|E| masks (C5 at n = 3), and the link
    # scan alone on C5 at n = 2, whose G_2 has more than 2^|E| closed
    # neighbourhoods but fewer whose link is no cone, on the r=11 case at
    # n = 2 and 3, on a G(8, 12) graph at n = 2, on the diamond plus an
    # isolated vertex at n = 2, and at n = 1 on a graph with two isolated
    # vertices
    def engines(G, n):
        engine_calls.clear()
        depth_symbolic(G, n, force=True)
        return "+".join(engine_calls)

    fam2 = builtin_graph("FAM(2)")
    assert [engines(_recursive_tree(seed, 8), 6) for seed in (0, 1)] == ["grid"] * 2
    assert [engines(fam2, n) for n in range(4, 8)] == ["grid"] * 4
    assert [engines(cycle_graph(5), n) for n in (2, 3)] == ["scan", "scan+grid"]
    assert [engines(_r11_case(), n) for n in (2, 3)] == ["scan"] * 2
    assert engines(_gnm(3, 8, 12), 2) == "scan"
    diamond_k1 = Graph.make(5, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    assert engines(diamond_k1, 2) == "scan"
    assert [depth_symbolic(diamond_k1, n) for n in (1, 2, 3)] == [3] * 3
    assert [_grid_depth(diamond_k1, n) for n in (1, 2, 3)] == [3] * 3
    G = Graph.make(4, [(1, 2)])
    assert engines(G, 1) == "scan"
    assert depth_symbolic(G, 1) == _grid_depth(G, 1)


def test_walked_powers_are_read_again_from_the_memo(engine_calls):
    # the oracle's walk reads depth_symbolic from B - 1 down to the first
    # power above the limit; each of those reads reg I(G_n) into the memo,
    # so asking the same powers again runs neither engine, while a power
    # below the walk (W5 plus a pendant at n = 1) runs one
    graphs = [inst.graph for inst in random_graphs(seed=0, count=30, max_r=7)]
    graphs += [builtin_graph("FIG3"), cycle_graph(5), cycle_graph(8), _w5_plus_pendant()]
    walks = [(G, stability_index_oracle(G), stability_bound(G)) for G in graphs]
    engine_calls.clear()  # the walks' own engine runs
    walked = [(G, n) for G, index, bound in walks for n in range(max(1, index - 1), bound)]
    assert len(walked) > len(graphs) // 2 and {n for _, n in walked} >= {1, 2, 3}
    for G, n in walked:
        depth_symbolic(G, n)
    assert engine_calls == []
    depth_symbolic(_w5_plus_pendant(), 1)
    assert engine_calls


def _w5_plus_pendant():
    """The wheel W5 with hub 6 plus a pendant 7 at the hub: sdstab 3 < B 4."""
    return Graph.make(7, [(1, 2), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (3, 6),
                          (4, 5), (4, 6), (5, 6), (6, 7)])


def _outcome(fn, *args, **kwargs):
    """The value, or the refusal's message."""
    try:
        return fn(*args, **kwargs)
    except BudgetRefusal as refusal:
        return f"refused: {refusal}"


def test_oracle_decision_matches_the_upward_scan():
    # seeds 0..2 of the 1,200-graph sample, the corpus graphs, C5 (sdstab 1
    # < B 2) and W5 plus a pendant (sdstab 3 < B 4, so the walk continues
    # past B - 1); a refusal must come with the upward scan's message
    graphs = [inst.graph for seed in range(3) for inst in random_graphs(seed=seed, count=40, max_r=8)]
    graphs += [builtin_graph(name) for name in ("FIG1", "FIG2", "FIG3", "FAM(1)", "FAM(2)")]
    graphs += [cycle_graph(5), _w5_plus_pendant()]
    below_bound = 0
    for G in graphs:
        for field in (Rationals(), PrimeField(2)):
            expected = _outcome(brute_stability_index, G, field)
            assert _outcome(stability_index_oracle, G, field) == expected, (G.edge_list, field)
            below_bound += isinstance(expected, int) and expected < stability_bound(G)
    assert below_bound
    assert [stability_index_oracle(G) for G in graphs[-2:]] == [1, 3]
    assert [stability_bound(G) for G in graphs[-2:]] == [2, 4]


def test_oracle_raises_when_the_construction_fails(monkeypatch):
    # the witness at B is shifted_exponents' own check; a failure there
    # contradicts the bound's construction, so it propagates and no grid
    # search stands in for it
    def broken(G, om, power):
        raise CertificateConstructionError("forced failure")

    grids = []
    monkeypatch.setattr(depth, "shifted_exponents", broken)
    monkeypatch.setattr(depth, "depth_symbolic", lambda G, n, *a, **k: grids.append(n))
    for G in (builtin_graph("FIG3"), cycle_graph(5), _w5_plus_pendant(), _r11_case()):
        with pytest.raises(CertificateConstructionError, match="forced failure"):
            stability_index_oracle(G)
    assert grids == []


def test_bound_and_witness_reuse_the_memoized_construction(monkeypatch):
    # once _shortest_max_ordered(G) holds (length, matching), the bound and
    # the length read it with no pass over the matching, and the oracle
    # makes one, for the witness at B
    calls = []
    inner = altpaths._pair_depths
    monkeypatch.setattr(altpaths, "_pair_depths", lambda G, om: calls.append(om) or inner(G, om))
    for G, ell, bound in ((builtin_graph("FIG3"), 5, 3), (_w5_plus_pendant(), 7, 4)):
        _, om = _shortest_max_ordered(G)
        calls.clear()
        assert (min_alt_path_length(G), stability_bound(G)) == (ell, bound)
        assert calls == []
        stability_index_oracle(G)
        assert calls == [om]


def test_r11_case_index_takes_one_depth_symbolic_call(monkeypatch):
    # the witness settles n = B = 3, so the walk asks for one depth, at
    # n = 2, where the depth 7 is above the limit 6
    calls = []
    full = depth.depth_symbolic
    monkeypatch.setattr(depth, "depth_symbolic", lambda G, n, *a, **k: calls.append(n) or full(G, n, *a, **k))
    assert stability_index_oracle(_r11_case()) == 3
    assert calls == [2]


def test_witness_point_gives_exactly_the_matching():
    # the layout's point (5): at B the shifted exponents of the shortest
    # maximum ordered matching, with every uncovered vertex at B, make a
    # grid point whose qualifying edges, read here without the library's
    # check, are exactly the matching
    rng = random.Random(13)
    graphs = [random_small_graph(rng, 8) for _ in range(60)]
    graphs += [builtin_graph(name) for name in ("FIG1", "FIG2", "FIG3", "FAM(2)", "CHAR16")]
    graphs += [cycle_graph(5), _w5_plus_pendant()]
    assert any(2 * ordered_matching_number(G) < G.vertex_count for G in graphs)
    for G in graphs:
        bound = stability_bound(G)
        om = _shortest_max_ordered(G)[1]
        exponents = shifted_exponents(G, om, bound).witness
        point = {**{v: bound for v in G.vertices()}, **exponents}
        assert exponents and set(point) == set(G.vertices()), G.edge_list
        assert all(0 <= a <= bound for a in point.values())
        edges = list(G.edge_list)
        code = sum(1 << i for i, (u, v) in enumerate(edges)
                   if point[u] < bound and point[v] < bound and point[u] + point[v] <= bound - 1)
        if G.vertex_count <= 10:  # the grid of CHAR16 at B is too large to list here
            assert code in _qualifying_subsets(list(_frontier_order(G)), edges, bound, bound), G.edge_list
        matching = {edges[i] for i in range(len(edges)) if code >> i & 1}
        assert matching == om.edge_set
        assert len(matching) == ordered_matching_number(G)


def test_oracle_budget_parity_with_the_upward_scan():
    # every budget at and just below each power's estimate (2n)^r up to B,
    # and r >= 13 without force: the same value, or the same refusal
    cases = [(G, (2 * n) ** G.vertex_count - below) for G in (_w5_plus_pendant(), cycle_graph(5), _r11_case())
             for n in range(1, stability_bound(G) + 1) for below in (1, 0)]
    outcomes = []
    for G, budget in cases:
        expected = _outcome(brute_stability_index, G, budget=budget)
        assert _outcome(stability_index_oracle, G, budget=budget) == expected, (G.edge_list, budget)
        outcomes.append(expected)
    assert any(isinstance(o, int) for o in outcomes) and any(isinstance(o, str) for o in outcomes)
    for G in (builtin_graph("CHAR16"), Graph.make(13, [(1, 2)])):
        expected = _outcome(brute_stability_index, G)
        assert expected.startswith("refused: refusing r=")
        assert _outcome(stability_index_oracle, G) == expected


def test_memo_key_is_canonical(monkeypatch):
    # the grid engine on the r=11 case at n = 2 from an empty memo: each
    # edge set reaches the memo under one key, whatever order its masks
    # were built in, so the distinct keys are as many as the distinct edge
    # sets they name
    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE", OrderedDict())
    keys, inner = [], depth._max_nonzero_degree

    def recording(edge_key, field):
        keys.append(edge_key)
        return inner(edge_key, field)

    monkeypatch.setattr(depth, "_max_nonzero_degree", recording)
    assert _grid_depth(_r11_case(), 2) == 7
    assert len(set(keys)) == len({_edges_of(dict(key)) for key in keys})
    assert (len(keys), len(depth._MAX_DEGREE_CACHE)) == (2048, 293)


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
        # the grid, not depth_symbolic: at n = 1 that may read the same link scan
        assert _grid_depth(G, 1) == G.vertex_count - reg_edge_ideal(G)


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


def test_mask_faces_match_the_facet_pipeline():
    # the library lists Ind's faces from masks, the reference derives them
    # from the facets: the same faces in the same order, and the same
    # homology over Q, GF(2) and GF(3), also on cones (an isolated vertex)
    # and on no vertex, whose Ind is {{}}
    fields = (Rationals(), PrimeField(2), PrimeField(3))
    graphs = _hochster_graphs()
    cases = [(tuple(G.vertices()), G.edge_list) for G in graphs]
    cones = [(tuple(G.vertices()) + (G.vertex_count + 1,), G.edge_list) for G in graphs[30:]]
    for verts, edges in cases + cones + [((), [])]:
        faces = _independence_complex(neighbour_pairs(verts, edges))
        ref = facet_independence_complex(verts, edges)
        assert faces == face_masks(ref), (verts, edges)
        for field in fields:
            assert reduced_homology(faces, field) == facet_homology(ref, field), (verts, edges, field)
    for verts, edges in cones:
        faces = _independence_complex(neighbour_pairs(verts, edges))
        for field in fields:
            assert not any(reduced_homology(faces, field).values())
    assert _independence_complex([]) == [[0]]
    assert reduced_homology([[0]]) == facet_homology(facet_independence_complex((), [])) == {-1: 1}


def test_boundary_ranks_of_ind_against_naive():
    # the facet pipeline behind the kernel tests reads its ranks from
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
    # set with more than one edge on which the fold deletes nothing, given
    # as the (vertex, neighbour mask) pairs of exactly its covered vertices
    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE", OrderedDict())
    for G in _hochster_graphs():
        for field in (Rationals(), PrimeField(2)):
            depth_symbolic(G, 1, field)
            depth_symbolic(G, 2, field)
            reg_edge_ideal(G, field)
    assert depth._MAX_DEGREE_CACHE
    for key, _ in depth._MAX_DEGREE_CACHE:
        nbr = dict(key)
        edges = _edges_of(nbr)
        assert len(edges) > 1 and _fold(dict(nbr)) == [sum(1 << (v - 1) for v in nbr)], sorted(key)
        assert _neighbour_masks(edges) == nbr, sorted(key)


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


def test_top_over_stops_at_the_first_ceiling_at_most_the_top(monkeypatch, empty_memo):
    # 2K2 at ceiling 1 gives top 1; C5 at ceiling 1 then stops the visit
    # before it is built, before its fold and before the input is asked for
    # a third pair; a graph is built only when it is read
    read, built = [], []

    def recording(nbr, field):
        read.append(frozenset(nbr))
        return _top_degree(nbr, field)

    def build(nbr):
        built.append(frozenset(nbr))
        return dict(nbr)

    def graphs():
        yield 1, _neighbour_masks(_disjoint_edges(2))
        yield 1, _neighbour_masks(C5)
        raise AssertionError("the visit advanced past the stopping pair")

    monkeypatch.setattr(depth, "_top_degree", recording)
    assert _top_over(graphs(), build, Rationals()) == 1
    assert read == built == [frozenset({1, 2, 3, 4})]
    assert _top_over(iter(()), build, Rationals()) == -1
    cones = [(2, {1: 0b10, 2: 0b1, 3: 0}), (1, _neighbour_masks([(1, 2), (2, 3), (3, 4)])), (0, {1: 0})]
    assert _top_over(cones, build, Rationals()) == -1
    assert len(read) == len(built) == 4


def test_disjoint_edges_add_one_each(empty_memo):
    for m in range(1, 5):
        assert len(_fold(_neighbour_masks(_disjoint_edges(m)))) == m
        for field in (Rationals(), PrimeField(2)):
            assert _kernel_and_dense(_disjoint_edges(m), field) == (m - 1, m - 1)


def test_two_pentagons_join_to_a_three_sphere(empty_memo):
    assert len(_fold(_neighbour_masks(C5_C5))) == 2
    assert _kernel_and_dense(C5_C5) == (3, 3)  # 1 + 1 + one join
    assert depth._MAX_DEGREE_CACHE[(_mask_key(C5), Rationals())] == 1


def test_acyclic_component_makes_the_union_acyclic(empty_memo):
    nbr = _neighbour_masks(ACYCLIC_UNFOLDABLE)
    assert _fold(nbr) == [(1 << 9) - 1] and _edges_of(nbr) == frozenset(ACYCLIC_UNFOLDABLE)
    assert len(_fold(_neighbour_masks(UNION_WITH_ACYCLIC))) == 3
    for field in (Rationals(), PrimeField(2)):
        assert _kernel_and_dense(UNION_WITH_ACYCLIC, field) == (None, None)


def test_reduced_kernel_matches_dense(monkeypatch):
    # the fold, cone and component rules against the facet pipeline with no
    # memo, over Q and GF(2): every edge set the grid search returns for
    # n = 1..3 on seeded random graphs with r <= 9 and for n = 1..sdstab on
    # the bound sweep's graphs, and every link that is no cone, from the
    # brute listing, of C5, C7, C8 and the criterion-4/5 graphs, whether or
    # not the ceiling lets reg_edge_ideal's visit reach it
    powers = [(inst.graph, range(1, 4)) for inst in random_graphs(seed=0, count=8, max_r=9)]
    powers += [(inst.graph, range(1, stability_index_oracle(inst.graph) + 1))
               for inst in random_graphs(seed=417, count=100, max_r=8)]
    edge_sets = set()
    for G, ns in powers:
        for n in ns:
            codes = _qualifying_subsets(list(_frontier_order(G)), list(G.edge_list), n, n)
            edge_sets.update(map(frozenset, _decode(codes, G.edge_list)))

    for G in [cycle_graph(r) for r in (5, 7, 8)] + [G for _, G in _duality_instances("full")]:
        for closed in non_cone_neighbourhoods(G, brute_closed_neighbourhoods(G)):
            edge_sets.add(frozenset(e for e in G.edges if not closed.intersection(e)))
    monkeypatch.setattr(depth, "_MAX_DEGREE_CACHE", OrderedDict())
    edge_sets.discard(frozenset())  # links with no edge
    assert len(edge_sets) > 17000
    for key in edge_sets:
        ceiling = len({v for e in key for v in e}) // 2 - 1  # j + 2 <= reg I(E) <= nu(E) + 1
        # Woodroofe: reg I(E) <= |M| + 1 for every maximal matching M
        M = bit_order_matching(sorted(key))
        matched = {v for e in M for v in e}
        assert len(matched) == 2 * len(M) and all(u in matched or v in matched for u, v in key), sorted(key)
        match_ceiling = len(M) - 1
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
    depth._reg.cache_clear()  # so the second run computes every reg I(G_n) again, under the tiny memo
    assert answers() == expected
    assert 0 < Watched.peak <= 4
    # first in, first out: the evictions replay the insertions in order
    assert Watched.evicted and Watched.evicted == Watched.inserted[:len(Watched.evicted)]
    assert _mask_key(C5) in {key[0] for key in Watched.inserted}  # a component read through the memo


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
    # the oracle's visit reads a maximal matching off codes of 66 edge bits
    assert _grid_depth(G, 1) == 12 - reg_edge_ideal(G) == 10


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
